package main

import "fmt"

// layerInputs is everything the per-layer reduction of a traced run reads.
type layerInputs struct {
	spec   workloadSpec
	res    *runResult
	g      *generator
	rec    *recording
	totals [][numKinds]kindTotals // per replica, spans that started in the window
	from   int64                  // window on the recording's clock, ns
	to     int64

	accepted  float64 // requests accepted in the window
	window    float64 // seconds
	cpuPerReq float64 // process CPU over the window per accepted request, us
	leader    int     // view leader at the start of the run

	begin, end, final []*replicaSnap // per replica; nil where the replica was down
	full              []bool         // replicas that ran the whole window

	stageMs             map[string]float64
	events, parks       int64
	evictions, drops    int64
	failover, heapLive  float64
	speed               float64 // machine speed during the window (calib.go)
	mallocs, allocBytes float64
	gcCPUUs, cpuTotalUs float64
}

func classIndex(name string) int {
	for i, n := range classNames {
		if n == name {
			return i
		}
	}
	panic("leopard-bench: the program has no message class named " + name)
}

// sumKind adds up one kind's totals over all replicas.
func (L *layerInputs) sumKind(k spanKind) kindTotals {
	var t kindTotals
	for i := range L.totals {
		t.count += L.totals[i][k].count
		t.dur += L.totals[i][k].dur
		t.self += L.totals[i][k].self
		t.cpuDur += L.totals[i][k].cpuDur
		t.cpuSelf += L.totals[i][k].cpuSelf
	}
	return t
}

// delta sums end-begin of one counter over the replicas that have both
// snapshots (a replica that was down at either edge contributes nothing).
func (L *layerInputs) delta(field func(*replicaSnap) int64) float64 {
	var sum int64
	for i := range L.begin {
		if L.begin[i] != nil && L.end[i] != nil {
			sum += field(L.end[i]) - field(L.begin[i])
		}
	}
	return float64(sum)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const nsPerUs = 1e3

// perLayerMetrics fills res.Metrics with every per-layer metric and
// res.budget with the budget table. "per_req" divides a cluster-wide sum
// by the requests accepted in the window; "per_block" by the blocks one
// replica executed in it.
func perLayerMetrics(L *layerInputs) error {
	m := L.res.Metrics
	A := L.accepted
	// Time per request is taken from the spans' processor-time estimates
	// (kindTotals.cpuDur/cpuSelf); loop busy fractions and storage, where
	// waiting is the point, use the wall-clock sums.
	perReqUs := func(ns int64) float64 { return float64(ns) / nsPerUs / A }

	// Blocks and requests one replica executed in the window: take the
	// replica that was up throughout and executed the most (one that
	// skipped blocks by a checkpoint jump executed fewer).
	var blocks, confirmed float64
	for i := range L.begin {
		if L.begin[i] != nil && L.end[i] != nil && L.full[i] {
			if b := float64(L.end[i].ExecutedBlocks - L.begin[i].ExecutedBlocks); b > blocks {
				blocks = b
				confirmed = float64(L.end[i].ConfirmedRequests - L.begin[i].ConfirmedRequests)
			}
		}
	}
	if blocks == 0 {
		L.res.problem("no replica executed a block inside the traced window")
		blocks = 1
	}
	perBlockUs := func(ns int64) float64 { return float64(ns) / nsPerUs / blocks }

	verify, sign := L.sumKind(kClientVerify), L.sumKind(kSign)
	share, combine, proof := L.sumKind(kVerifyShare), L.sumKind(kCombine), L.sumKind(kVerifyProof)
	encode, decode := L.sumKind(kEncode), L.sumKind(kDecode)
	submit := L.sumKind(kInjectSubmit)

	m["client.verify_us_per_req"] = perReqUs(verify.cpuDur)
	m["client.verify_calls_per_req"] = float64(verify.count) / A
	m["client.failed_frac"] = ratio(float64(L.res.Failed), float64(L.res.Attempted))

	m["mempool.admit_self_us_per_req"] = perReqUs(submit.cpuSelf)
	admitted := L.delta(func(s *replicaSnap) int64 { return s.Admitted })
	rejected := L.delta(func(s *replicaSnap) int64 { return s.Rejected })
	m["mempool.reject_frac"] = ratio(rejected, admitted+rejected)
	var pending []float64
	queuedMax := 0
	for _, d := range L.g.depths {
		if d.at >= L.g.t0 && d.at < L.g.t1 {
			pending = append(pending, float64(d.pending))
			if d.queued > queuedMax {
				queuedMax = d.queued
			}
		}
	}
	m["mempool.pending_depth_p50"] = percentile(pending, 50)
	m["mempool.queued_depth_max"] = float64(queuedMax)

	m["crypto.sign_us_per_req"] = perReqUs(sign.cpuDur)
	m["crypto.sign_calls_per_req"] = float64(sign.count) / A
	m["crypto.verify_share_us_per_req"] = perReqUs(share.cpuDur)
	m["crypto.verify_share_calls_per_block"] = float64(share.count) / blocks
	m["crypto.combine_us_per_block"] = perBlockUs(combine.cpuDur)
	m["crypto.verify_proof_us_per_block"] = perBlockUs(proof.cpuDur)

	m["codec.encode_us_per_req"] = perReqUs(encode.cpuDur)
	m["codec.decode_us_per_req"] = perReqUs(decode.cpuDur)
	m["codec.encode_bytes_per_req"] = L.delta(func(s *replicaSnap) int64 { return s.EncodeBytes }) / A

	// transport: what the replicas received, by class.
	var rxAll, rxMsgs, rxLeader float64
	for c := 0; c < maxClasses; c++ {
		b := L.delta(func(s *replicaSnap) int64 { return s.RxBytes[c] })
		rxAll += b
		rxMsgs += L.delta(func(s *replicaSnap) int64 { return s.RxMsgs[c] })
		if L.begin[L.leader] != nil && L.end[L.leader] != nil {
			rxLeader += float64(L.end[L.leader].RxBytes[c] - L.begin[L.leader].RxBytes[c])
		}
	}
	for _, name := range []string{"datablock", "bftblock", "vote", "proof", "checkpoint", "viewchange", "state"} {
		c := classIndex(name)
		m["transport.rx_bytes_per_req."+name] = L.delta(func(s *replicaSnap) int64 { return s.RxBytes[c] }) / A
	}
	m["transport.rx_msgs_per_req"] = rxMsgs / A
	m["transport.leader_rx_bytes_share"] = ratio(rxLeader, rxAll)
	m["transport.inject_wait_p99_us"] = percentile(L.rec.injectWaits(L.from, L.to), 99) / nsPerUs
	m["transport.stream_parks"] = float64(L.parks)
	m["transport.stream_evictions"] = float64(L.evictions)
	m["transport.dropped_frames"] = float64(L.drops)

	// leopard: self time of the node's handlers, by message class.
	named := map[string]bool{"datablock": true, "bftblock": true, "vote": true, "proof": true, "checkpoint": true}
	var otherSelf, deliverSelf int64
	for c := 0; c < maxClasses; c++ {
		t := L.sumKind(kDeliver + spanKind(c))
		deliverSelf += t.cpuSelf
		if named[classNames[c]] {
			m["leopard.deliver_self_us_per_req."+classNames[c]] = perReqUs(t.cpuSelf)
		} else {
			otherSelf += t.cpuSelf
		}
	}
	m["leopard.deliver_self_us_per_req.other"] = perReqUs(otherSelf)
	tick, start, other := L.sumKind(kTick), L.sumKind(kStart), L.sumKind(kInjectOther)
	exec, replySink := L.sumKind(kExecute), L.sumKind(kReply)
	m["leopard.tick_self_us_per_req"] = perReqUs(tick.cpuSelf)
	m["leopard.execute_us_per_req"] = perReqUs(exec.cpuDur)
	m["leopard.reply_us_per_req"] = perReqUs(replySink.cpuDur)

	// How busy each apply loop was: the parent spans cover all it does.
	busy := make([]float64, len(L.totals))
	var followerSum, followerMax float64
	followers := 0
	for i := range L.totals {
		var ns int64
		for k := spanKind(0); k < numKinds; k++ {
			if k.isParent() {
				ns += L.totals[i][k].dur
			}
		}
		busy[i] = float64(ns) / 1e9 / L.window
		if i != L.leader {
			followers++
			followerSum += busy[i]
			if busy[i] > followerMax {
				followerMax = busy[i]
			}
		}
	}
	m["leopard.apply_busy_frac.leader"] = busy[L.leader]
	m["leopard.apply_busy_frac.follower_mean"] = ratio(followerSum, float64(followers))
	m["leopard.apply_busy_frac.follower_max"] = followerMax
	m["leopard.leader_busy_ratio"] = ratio(busy[L.leader], ratio(followerSum, float64(followers)))

	datablocks := L.delta(func(s *replicaSnap) int64 { return s.DatablocksMade })
	m["leopard.reqs_per_datablock"] = ratio(confirmed, datablocks)
	m["leopard.reqs_per_block"] = ratio(confirmed, blocks)
	var viewChanges, retrievals, walErrors, storeErrors int64
	for _, s := range L.final {
		if s == nil {
			continue
		}
		if s.ViewChanges > viewChanges {
			viewChanges = s.ViewChanges
		}
		retrievals += s.Retrievals
		walErrors += s.WALErrors
		storeErrors += s.StoreErrors
	}
	m["leopard.view_changes"] = float64(viewChanges)
	m["leopard.skipped_blocks"] = L.res.Info["skipped_blocks"]
	m["leopard.retrievals"] = float64(retrievals)
	m["leopard.stage_ms.generation"] = ratio(L.delta(func(s *replicaSnap) int64 { return s.GenerationNs })/1e6, datablocks)
	for _, name := range []string{"dissemination", "notarization", "confirmation", "execution"} {
		m["leopard.stage_ms."+name] = L.stageMs[name]
	}

	// storage: present on the WAL workloads, and must be absent elsewhere.
	appendT, vote, note, storeOther := L.sumKind(kAppend), L.sumKind(kAppendVote), L.sumKind(kAppendNote), L.sumKind(kStoreOther)
	storageNs := appendT.dur + vote.dur + note.dur + storeOther.dur
	if !L.spec.WAL && appendT.count+vote.count+note.count+storeOther.count > 0 {
		L.res.problem("storage was called %d times on an in-memory workload", appendT.count+vote.count+note.count+storeOther.count)
	}
	voteDurs := L.rec.durations(kAppendVote, L.from, L.to)
	m["storage.append_us_per_block"] = ratio(float64(appendT.dur)/nsPerUs, float64(appendT.count))
	m["storage.append_vote_p50_us"] = percentile(voteDurs, 50) / nsPerUs
	m["storage.append_vote_p99_us"] = percentile(voteDurs, 99) / nsPerUs
	m["storage.vote_syncs_per_block"] = ratio(L.delta(func(s *replicaSnap) int64 { return s.StoreSyncs }), float64(appendT.count))
	m["storage.log_bytes_per_req"] = L.delta(func(s *replicaSnap) int64 { return s.AppendBytes }) / A
	m["storage.errors"] = float64(walErrors + storeErrors)

	m["recovery.failover_s"] = L.failover
	m["recovery.catchup_s"] = L.g.catchup.Seconds()
	m["recovery.blocks_replayed"], m["recovery.state_blocks_applied"] = 0, 0
	if L.spec.Crash && L.final[L.leader] != nil {
		m["recovery.blocks_replayed"] = float64(L.final[L.leader].BlocksReplayed)
		m["recovery.state_blocks_applied"] = float64(L.final[L.leader].StateBlocksApplied)
	}

	// Layers with no seam in the cluster: isolated drivers on this
	// workload's shapes. Retrieval (erasure, merkle) is not on any
	// normal-case path; leopard.retrievals above says whether it ran.
	shape := make([]request, L.spec.DatablockSize)
	for i := range shape {
		shape[i] = request{client: uint64(i), seq: 1, payload: L.g.payload(uint64(i), 1)}
	}
	iso, err := isolatedLayers(L.spec.N, shape)
	if err != nil {
		return err
	}
	for k, v := range iso {
		m[k] = v
	}

	m["obs.events_per_req"] = ratio(float64(L.events), float64(L.g.totalAccepted))
	m["runtime.allocs_per_req"] = L.mallocs / A
	m["runtime.alloc_bytes_per_req"] = L.allocBytes / A
	m["runtime.gc_cpu_frac"] = ratio(L.gcCPUUs, L.cpuTotalUs)
	m["runtime.heap_live_mb"] = L.heapLive

	m["loadgen.sign_us_per_req"] = ratio(float64(L.g.signNs)/nsPerUs, float64(L.g.signs))
	m["loadgen.late_p99_ms"] = percentile(L.g.late, 99)
	m["loadgen.retransmits"] = float64(L.g.retransmits())
	m["loadgen.machine_speed"] = L.speed

	// The budget: every timed layer in us per accepted request, against
	// the process CPU per accepted request of the same window. What the
	// spans do not cover is the transport's goroutines, syscalls, the
	// runtime (scheduler, GC) and the load generator's bookkeeping.
	cryptoUs := perReqUs(sign.cpuDur + share.cpuDur + combine.cpuDur + proof.cpuDur)
	leopardUs := perReqUs(deliverSelf + tick.cpuSelf + start.cpuSelf + other.cpuSelf)
	L.res.budget = []budgetRow{
		{"client (request verify)", m["client.verify_us_per_req"]},
		{"mempool (admit, self)", m["mempool.admit_self_us_per_req"]},
		{"crypto (sign, shares, proofs)", cryptoUs},
		{"codec (encode, decode)", perReqUs(encode.cpuDur + decode.cpuDur)},
		{"leopard (handlers, self)", leopardUs},
		{"app (executor)", m["leopard.execute_us_per_req"]},
		{"reply sink", m["leopard.reply_us_per_req"]},
		{"storage (WAL)", perReqUs(storageNs)},
		{"loadgen (request sign)", m["loadgen.sign_us_per_req"]},
	}
	var covered float64
	for _, row := range L.res.budget {
		covered += row.us
	}
	m["budget.cpu_us_per_req"] = L.cpuPerReq
	m["budget.coverage_frac"] = ratio(covered, L.cpuPerReq)

	// Measured values for simnet.Config's hand-picked constants. A vote- or
	// proof-class message costs its receiver share verification, proof
	// combination and verification, and the handlers' own time (reply
	// signing and execution, which a confirming proof also triggers, are
	// not part of it). Datablock bytes pass through decode and the
	// datablock handler.
	votes := L.sumKind(kDeliver + spanKind(classIndex("vote")))
	proofs := L.sumKind(kDeliver + spanKind(classIndex("proof")))
	m["calib.vote_proc_us"] = ratio(float64(votes.cpuSelf+proofs.cpuSelf+share.cpuDur+combine.cpuDur+proof.cpuDur)/nsPerUs, float64(votes.count+proofs.count))
	dbClass := classIndex("datablock")
	dbBytes := L.delta(func(s *replicaSnap) int64 { return s.RxBytes[dbClass] })
	dbNs := L.sumKind(kDeliver+spanKind(dbClass)).cpuDur + decode.cpuDur
	m["calib.proc_mbps"] = ratio(dbBytes*8/1e6, float64(dbNs)/1e9)

	m["obs.trace_overhead_frac"] = 0 // set by the caller, which has the untraced goodput
	return nil
}

// printBudget writes the budget table: layer, us per request, share of CPU.
func printBudget(res *runResult) {
	cpu := res.Metrics["budget.cpu_us_per_req"]
	fmt.Printf("  budget (%s, %.1f us CPU per accepted request in the traced window)\n", res.Workload, cpu)
	fmt.Printf("    %-32s %10s %8s\n", "layer", "us/req", "share")
	for _, row := range res.budget {
		fmt.Printf("    %-32s %10.2f %7.1f%%\n", row.layer, row.us, 100*ratio(row.us, cpu))
	}
	fmt.Printf("    %-32s %10s %7.1f%%\n", "covered (budget.coverage_frac)", "", 100*res.Metrics["budget.coverage_frac"])
}
