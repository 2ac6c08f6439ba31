package leopard_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"leopard/internal/leopard"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// auditSizes walks v and reports every map and slice inside it that holds
// more than bound entries. It goes through pointers, structs and the values
// of maps and slices, so a collection nested in an instance or a slot is
// found like a top-level one, and one added later is found without editing
// this file. Byte slices are payload, not bookkeeping, and are skipped.
func auditSizes(v reflect.Value, path string, bound int, report func(string)) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			auditSizes(v.Elem(), path, bound, report)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			auditSizes(v.Field(i), path+"."+v.Type().Field(i).Name, bound, report)
		}
	case reflect.Map:
		if v.Len() > bound {
			report(fmt.Sprintf("%s holds %d entries, bound %d", path, v.Len(), bound))
		}
		for it := v.MapRange(); it.Next(); {
			auditSizes(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()), bound, report)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return
		}
		if v.Len() > bound {
			report(fmt.Sprintf("%s holds %d entries, bound %d", path, v.Len(), bound))
		}
		for i := 0; i < v.Len(); i++ {
			auditSizes(v.Index(i), fmt.Sprintf("%s[%d]", path, i), bound, report)
		}
	}
}

// TestAgreementStateStaysBounded is the resource audit of what a replica
// holds per view, per serial number and per datablock: after a run of a few
// hundred blocks with a view change in the middle and stable checkpoints
// throughout, every map and slice in the view record, the slot table, the
// datablock table with its index and counter ledgers, the retrieval state
// and the own-datablock window, at any depth, holds at
// most k × n × MaxOutstandingDatablocks entries — the window times every
// datablock that can be outstanding, which no honest run's bookkeeping
// exceeds. The run is several bounds long, so anything that grows by an entry
// per block, per datablock or per checkpoint and is not released shows.
func TestAgreementStateStaysBounded(t *testing.T) {
	const (
		replicas    = 4
		window      = 8
		outstanding = 2
		bound       = window * replicas * outstanding
		vcTimeout   = 50 * time.Millisecond
		step        = 5 * time.Millisecond
	)
	r, _ := storedRouter(t, replicas, func(cfg *leopard.Config) {
		cfg.MaxParallel = window
		cfg.CheckpointEvery = window / 2
		cfg.MaxOutstandingDatablocks = outstanding
		cfg.DatablockSize = 5
		cfg.ViewChangeTimeout = vcTimeout
	})
	load := func(rounds int, firstSeq uint64) {
		for i := 0; i < rounds; i++ {
			r.submit(0, 10, firstSeq+uint64(10*i))
			r.submit(3, 10, firstSeq+uint64(10*i))
			r.advance(2*step, step)
		}
	}
	load(100, 0)
	before := r.nodes[0].Stats()
	if before.ViewChanges != 0 || before.LastCheckpointSeq < 2*window {
		t.Fatalf("first phase: %d view changes, last checkpoint %d; want none and at least %d", before.ViewChanges, before.LastCheckpointSeq, 2*window)
	}

	// The view-1 leader goes silent with work pending until the others have
	// moved to view 2, then comes back.
	r.drop = func(from, to types.ReplicaID, msg transport.Message) bool { return from == genesisLeader }
	r.submit(0, 10, 1000)
	r.submit(3, 10, 1000)
	r.advance(8*vcTimeout, step)
	r.drop = nil
	load(100, 1010)

	for id, node := range r.nodes {
		st := node.Stats()
		if st.View < 2 {
			t.Fatalf("replica %d is still in view %d", id, st.View)
		}
		if st.LastCheckpointSeq < before.LastCheckpointSeq+2*window || st.ExecutedBlocks < 4*bound {
			t.Fatalf("replica %d: last checkpoint %d after %d blocks; the run is too short to show a leak", id, st.LastCheckpointSeq, st.ExecutedBlocks)
		}
		report := func(msg string) { t.Errorf("replica %d: %s", id, msg) }
		for name, state := range node.AgreementState() {
			auditSizes(reflect.ValueOf(state), name, bound, report)
		}
	}
}
