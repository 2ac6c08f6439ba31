package harness

import (
	"slices"
	"time"

	"leopard/internal/faultplan"
	"leopard/internal/leopard"
	"leopard/internal/simnet"
	"leopard/internal/storage"
	"leopard/internal/transport"
	"leopard/internal/types"
)

// InstallPlan arms a fault schedule on the cluster: the engine's filter
// takes the network's filter slot (partitions, probabilistic loss) and its
// timed events (delay spikes, clock skew, crashes, durable restarts) are
// registered against the simulator clock. Restarts go through the
// cluster's Restart, so a replica built over its reopened store recovers
// durably — and trips the invariant checker's durability hooks when one
// is attached. Install at most one plan per run, before Start.
func (c *Cluster) InstallPlan(p faultplan.Plan) (*faultplan.Engine, error) {
	if err := p.Validate(c.opts.N); err != nil {
		return nil, err
	}
	eng := faultplan.New(p)
	c.Net.SetFilter(eng.Filter)
	eng.Schedule(faultplan.Hooks{
		N:            c.opts.N,
		Schedule:     c.Net.ScheduleCall,
		Crash:        func(id types.ReplicaID) { c.Net.Crash(id) },
		Restart:      c.Restart,
		SetLinkDelay: c.Net.SetLinkDelay,
		SetClockSkew: c.Net.SetClockSkew,
	})
	return eng, nil
}

// AttachInvariants installs the checker's message tap and remembers it so
// Restart can assert durability around every crash-restart cycle.
// Execution observers and stores are per-replica wiring the experiment's
// Build function owns (Config.OnExecute + RegisterStore).
func (c *Cluster) AttachInvariants(ic *InvariantChecker) {
	c.Invariants = ic
	c.Net.SetObserver(ic.ObserveMessage)
}

// frontier reports a replica's executed height when it exposes one.
func frontier(r any) (types.SeqNum, bool) {
	e, ok := r.(interface{ ExecutedTo() types.SeqNum })
	if !ok {
		return 0, false
	}
	return e.ExecutedTo(), true
}

// checkDurability brackets a restart for the invariant checker.
func (c *Cluster) checkDurability(id types.ReplicaID, rebuild func() error) error {
	if c.Invariants == nil {
		return rebuild()
	}
	c.Invariants.BeforeRestart(id)
	if err := rebuild(); err != nil {
		return err
	}
	if recovered, ok := frontier(c.Replicas[id]); ok {
		c.Invariants.AfterRestart(id, recovered)
	}
	return nil
}

// ForgetVotes wraps a store so it forgets the vote-ahead log: vote and
// note appends succeed without being recorded and nothing is reloaded at
// restart. It reopens the crash-between-vote-and-execute amnesia window
// from outside the protocol, for the safety regression that proves the
// vote-ahead log closes it (chaos amnesia A/B). Everything else passes
// through to the wrapped store.
func ForgetVotes(st storage.Store) storage.Store { return forgetVotes{st} }

type forgetVotes struct{ storage.Store }

func (forgetVotes) AppendVote(storage.VoteRecord) error { return nil }
func (forgetVotes) AppendNote(storage.NoteRecord) error { return nil }
func (forgetVotes) Votes() []storage.VoteRecord         { return nil }
func (forgetVotes) Notes() []storage.NoteRecord         { return nil }

// SelectiveAttack is the paper's selective attack (§IV-A2) as a network
// filter: each attacker sends its datablocks only to the targets and answers
// retrieval queries from no one else ("sends its packages to a small subset
// of replicas and ignores others"). It drops datablocks, retrieval responses
// and ablation-A1 full blocks from an attacker to a non-target, and admits
// everything else.
func SelectiveAttack(attackers, targets []types.ReplicaID) simnet.Filter {
	return func(_ time.Duration, from, to types.ReplicaID, msg transport.Message) bool {
		switch msg.(type) {
		case *leopard.DatablockMsg, *leopard.RespMsg, *leopard.FullBlockMsg:
			return !slices.Contains(attackers, from) || slices.Contains(targets, to)
		}
		return true
	}
}
