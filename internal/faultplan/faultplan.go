// Package faultplan scripts deterministic fault schedules against the
// simulated cluster: timed network partitions (symmetric and asymmetric),
// per-link delay/jitter spikes, probabilistic control-lane message loss,
// per-replica clock skew, and crash/restart points. A Plan is pure data; an
// Engine turns it into a simnet message filter plus a set of scheduled
// calls, drawing every random decision from its own seeded RNG so two
// identically-seeded runs of the same plan are byte-identical.
//
// The engine composes with the existing simnet machinery rather than
// replacing it: partitions and loss act through the network's Filter hook,
// delay spikes and clock skew through SetLinkDelay/SetClockSkew, crashes
// and restarts through Crash and the harness's durable Restart. Invariant
// checkers observe traffic through the separate SetObserver tap, so a plan
// and a checker never fight over the filter slot.
package faultplan

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"leopard/internal/transport"
	"leopard/internal/types"
)

// Partition blocks messages between two replica groups during [From, Until).
// Symmetric by default; OneWay blocks only A→B traffic (an asymmetric
// partition: B's messages still reach A), modeling e.g. a leader that can
// send but not hear.
type Partition struct {
	From  time.Duration
	Until time.Duration
	A, B  []types.ReplicaID
	// OneWay blocks only traffic from a replica in A to a replica in B.
	OneWay bool
}

// Loss drops each matching message with probability Prob during
// [From, Until). ControlOnly restricts the loss to messages whose Policy
// rides the control lane (votes, proposals, proofs, view-change, new-view,
// retrieval queries), leaving bulk dissemination intact — the adversarial
// case for agreement latency.
type Loss struct {
	From        time.Duration
	Until       time.Duration
	Prob        float64
	ControlOnly bool
	// Replicas, when non-empty, restricts the loss to messages sent by
	// these replicas; empty means every sender.
	Replicas []types.ReplicaID
}

// Delay installs an extra one-way delay spike (plus up to Jitter of seeded
// random spread per message) on the From→To link during [Start, Until).
// Negative From or To is a wildcard for every replica.
type Delay struct {
	Start time.Duration
	Until time.Duration
	From  int // sender, -1 = all
	To    int // receiver, -1 = all
	Extra time.Duration
	// Jitter adds up to this much seeded random extra delay per message.
	Jitter time.Duration
}

// Skew offsets the clock replica Replica observes by Offset, from At
// onward (a later Skew entry for the same replica overwrites it; an entry
// with zero Offset heals the clock).
type Skew struct {
	At      time.Duration
	Replica types.ReplicaID
	Offset  time.Duration
}

// Crash kills Replica at At; a non-zero RestartAt revives it through the
// harness's durable restart path (rebuild over the surviving store).
type Crash struct {
	At        time.Duration
	Replica   types.ReplicaID
	RestartAt time.Duration
}

// Plan is one complete fault schedule. The zero plan injects nothing.
type Plan struct {
	Name string
	// Seed feeds the engine's RNG (probabilistic loss). Plans with equal
	// seeds and events replay byte-identically.
	Seed       int64
	Partitions []Partition
	Losses     []Loss
	Delays     []Delay
	Skews      []Skew
	Crashes    []Crash
}

// End returns the instant the schedule has fully healed: the latest window
// end, skew onset, or restart point. Bounded-liveness checks grant the
// cluster a grace period from here.
func (p *Plan) End() time.Duration {
	var end time.Duration
	bump := func(t time.Duration) {
		if t > end {
			end = t
		}
	}
	for _, w := range p.Partitions {
		bump(w.Until)
	}
	for _, w := range p.Losses {
		bump(w.Until)
	}
	for _, w := range p.Delays {
		bump(w.Until)
	}
	for _, s := range p.Skews {
		bump(s.At)
	}
	for _, c := range p.Crashes {
		bump(c.At)
		bump(c.RestartAt)
	}
	return end
}

// Validate checks every replica reference against cluster size n.
func (p *Plan) Validate(n int) error {
	check := func(id types.ReplicaID) error {
		if int(id) < 0 || int(id) >= n {
			return fmt.Errorf("faultplan %q: replica %d out of range [0, %d)", p.Name, id, n)
		}
		return nil
	}
	for _, w := range p.Partitions {
		for _, id := range append(append([]types.ReplicaID(nil), w.A...), w.B...) {
			if err := check(id); err != nil {
				return err
			}
		}
	}
	for _, w := range p.Losses {
		for _, id := range w.Replicas {
			if err := check(id); err != nil {
				return err
			}
		}
	}
	for _, d := range p.Delays {
		if d.From >= n || d.To >= n {
			return fmt.Errorf("faultplan %q: delay endpoint out of range [0, %d)", p.Name, n)
		}
	}
	for _, s := range p.Skews {
		if err := check(s.Replica); err != nil {
			return err
		}
	}
	for _, c := range p.Crashes {
		if err := check(c.Replica); err != nil {
			return err
		}
	}
	return nil
}

// Hooks is the cluster surface the engine schedules against. Schedule is
// the simulator's ScheduleCall; Crash/Restart/SetLinkDelay/SetClockSkew
// map to the simnet and harness operations of the same names. N is the
// cluster size (expands wildcard delay endpoints).
type Hooks struct {
	N            int
	Schedule     func(at time.Duration, fn func(now time.Duration))
	Crash        func(id types.ReplicaID)
	Restart      func(id types.ReplicaID) error
	SetLinkDelay func(from, to types.ReplicaID, extra, jitter time.Duration)
	SetClockSkew func(id types.ReplicaID, off time.Duration)
}

// Engine executes one plan: its Filter implements the windowed faults
// (partitions, probabilistic loss) and Schedule registers the timed events
// (delay spikes, skews, crashes/restarts).
type Engine struct {
	plan Plan
	rng  *rand.Rand
	errs []error
}

// New builds an engine over the plan with a fresh RNG seeded from it.
func New(p Plan) *Engine {
	return &Engine{plan: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Errs returns errors from scheduled operations (e.g. a failed restart).
func (e *Engine) Errs() []error { return e.errs }

// Filter is a simnet.Filter implementing the plan's partitions and message
// loss; true admits the message. Loss draws from the engine's seeded RNG
// only for messages inside an active window, so the random stream — and
// therefore the whole run — is a deterministic function of the plan.
func (e *Engine) Filter(now time.Duration, from, to types.ReplicaID, msg transport.Message) bool {
	for _, w := range e.plan.Partitions {
		if now < w.From || now >= w.Until {
			continue
		}
		if slices.Contains(w.A, from) && slices.Contains(w.B, to) {
			return false
		}
		if !w.OneWay && slices.Contains(w.B, from) && slices.Contains(w.A, to) {
			return false
		}
	}
	for _, w := range e.plan.Losses {
		if now < w.From || now >= w.Until {
			continue
		}
		if w.ControlOnly && msg.Policy().Lane() != transport.LaneControl {
			continue
		}
		if len(w.Replicas) > 0 && !slices.Contains(w.Replicas, from) {
			continue
		}
		if e.rng.Float64() < w.Prob {
			return false
		}
	}
	return true
}

// Schedule registers the plan's timed events through the hooks. Call once,
// before the run starts.
func (e *Engine) Schedule(h Hooks) {
	for _, d := range e.plan.Delays {
		d := d
		eachLink := func(fn func(from, to types.ReplicaID)) {
			for from := 0; from < h.N; from++ {
				if d.From >= 0 && from != d.From {
					continue
				}
				for to := 0; to < h.N; to++ {
					if to == from || (d.To >= 0 && to != d.To) {
						continue
					}
					fn(types.ReplicaID(from), types.ReplicaID(to))
				}
			}
		}
		h.Schedule(d.Start, func(time.Duration) {
			eachLink(func(from, to types.ReplicaID) { h.SetLinkDelay(from, to, d.Extra, d.Jitter) })
		})
		h.Schedule(d.Until, func(time.Duration) {
			eachLink(func(from, to types.ReplicaID) { h.SetLinkDelay(from, to, 0, 0) })
		})
	}
	for _, s := range e.plan.Skews {
		s := s
		h.Schedule(s.At, func(time.Duration) { h.SetClockSkew(s.Replica, s.Offset) })
	}
	for _, c := range e.plan.Crashes {
		c := c
		h.Schedule(c.At, func(time.Duration) { h.Crash(c.Replica) })
		if c.RestartAt > 0 {
			h.Schedule(c.RestartAt, func(time.Duration) {
				if err := h.Restart(c.Replica); err != nil {
					e.errs = append(e.errs, fmt.Errorf("faultplan %q: restart %d: %w", e.plan.Name, c.Replica, err))
				}
			})
		}
	}
}
