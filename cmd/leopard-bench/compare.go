package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// runSet is the runs of one file written with -json.
type runSet []*runResult

func readRunSet(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var set runSet
	for dec := json.NewDecoder(f); ; {
		var r runResult
		if err := dec.Decode(&r); err == io.EOF {
			return set, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = append(set, &r)
	}
}

// values collects one gated metric of one workload over a run set's
// untraced runs.
func (s runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s {
		if r.Workload != workload || r.Trace != 0 {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		} else if v, ok := r.Info[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

// compareFiles prints one row per workload and gate with both medians,
// each set's spread between quartiles and the change from a to b, and
// reports whether any row is a regression.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRunSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return false, err
	}
	return compareSets(w, a, b), nil
}

// compareSets marks a row REGRESSION when b's median is worse than a's by
// more than the gate's bound and by more than either set's own spread. A
// change past the bound but inside a spread is "unresolved": the pair does
// not hold its bound on this machine, and the bound is not widened for it.
func compareSets(w io.Writer, a, b runSet) (regressed bool) {
	fmt.Fprintf(w, "%-10s %-16s %12s %8s %12s %8s %9s %7s\n",
		"workload", "metric", "median a", "spread", "median b", "spread", "change", "bound")
	unresolved := 0
	for _, spec := range everyWorkload() {
		for _, gt := range gates {
			va, vb := a.values(spec.Name, gt.Name), b.values(spec.Name, gt.Name)
			if len(va) == 0 || len(vb) == 0 || (gt.Only != "" && gt.Only != spec.Name) {
				continue
			}
			ma, mb := median(va), median(vb)
			// Everything below is a share of a's median, or for an
			// absolute gate in the metric's own unit.
			scale, unit := 100/math.Abs(ma), "%"
			if gt.Abs {
				scale, unit = 1, ""
			} else if ma == 0 {
				continue
			}
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			spreadA, spreadB := (qa3-qa1)*scale, (qb3-qb1)*scale
			change, bound := (mb-ma)*scale, gt.Bound*100
			if gt.Abs {
				bound = gt.Bound
			}
			worse := change
			if gt.Better == "higher" {
				worse = -change
			}
			mark := ""
			switch {
			case worse > bound && worse > math.Max(spreadA, spreadB):
				mark = "  REGRESSION"
				regressed = true
			case worse > bound:
				mark = "  unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-10s %-16s %12.4f %7.3g%s %12.4f %7.3g%s %+8.3g%s %6.3g%s%s\n",
				spec.Name, gt.Name, ma, spreadA, unit, mb, spreadB, unit, change, unit, bound, unit, mark)
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(w, "%d rows unresolved: the change is past the bound but inside the run-to-run spread\n", unresolved)
	}
	return regressed
}
