package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"distlog/internal/capacity"
	"distlog/internal/wire"
)

// layerReport is what a traced run writes to the out directory beside
// the metrics it prints: the blocking-path account, the model-vs-
// measured table and a window of raw spans.
type layerReport struct {
	account []string
	model   []string
	spans   []span
}

// spanWindow is how much of the traced commit slice has its spans
// written out; the first restart is written whole.
const spanWindow = 500 * time.Millisecond

func spanDurationsUS(spans []span, win iv) samples {
	var out samples
	for _, s := range spans {
		if s.start >= win.lo && s.start < win.hi {
			out = append(out, float64(s.dur)/1e3)
		}
	}
	return out
}

func spanIVs(spans []span, keep func(span) bool) []iv {
	var out []iv
	for _, s := range spans {
		if keep(s) {
			out = append(out, s.iv())
		}
	}
	return out
}

// perLayerValues reduces a traced measurement to the per-layer metrics.
func (m *measurement) perLayerValues() (map[string]float64, *layerReport, error) {
	tr := m.tr
	unmatched := tr.finish()
	sp := tr.allSpans()
	pc, pr := &tr.count[phaseCommit], &tr.count[phaseRestart]
	commits := float64(m.commit.commits())
	restarts := float64(len(m.restarts))
	elapsed := m.commit.elapsed.Seconds()
	k1 := m.sp.streams == 1
	d := func(after, before uint64) float64 { return float64(after - before) }
	na := func(v float64) float64 {
		if !k1 {
			return notApplicable
		}
		return v
	}
	v := make(map[string]float64)

	// recman: the engine calls the committers timed, and its own counts.
	var updates, txnCommits []time.Duration
	for _, ct := range tr.timers {
		updates = append(updates, ct.updates...)
		txnCommits = append(txnCommits, ct.commits...)
	}
	cu := durationsUS(txnCommits).sorted()
	v["recman.update_us_p50"] = durationsUS(updates).p(50)
	v["recman.commit_us_p50"] = percentile(cu, 50)
	v["recman.commit_us_p99"] = percentile(cu, 99)
	userBytes := d(m.after.engine.LogBytes, m.before.engine.LogBytes)
	v["recman.records_per_commit"] = ratio(d(m.after.engine.LogRecords, m.before.engine.LogRecords), commits)
	v["recman.log_bytes_per_commit"] = ratio(userBytes, commits)
	var opens, recovers, applies, waits []time.Duration
	var hits, pwaits, cstreams, stalled float64
	for _, s := range m.restarts {
		if s.open >= callTimeout {
			stalled++
		}
		opens = append(opens, s.open)
		recovers = append(recovers, s.recover)
		applies = append(applies, s.recover-s.cursorWait)
		waits = append(waits, s.cursorWait)
		hits += float64(s.stats.PrefetchHits)
		pwaits += float64(s.stats.PrefetchWaits)
		cstreams += float64(s.stats.CursorStreams)
	}
	v["recman.recover_ms_p50"] = durationsMS(recovers).p(50)
	v["recman.apply_ms_p50"] = na(durationsMS(applies).p(50))

	// core: the recman.Log seam, and the client's own counters.
	wl := spanDurationsUS(sp[spanWriteLog], m.commitWin).sorted()
	fo := spanDurationsUS(sp[spanForce], m.commitWin).sorted()
	v["core.writelog_us_p50"] = na(percentile(wl, 50))
	v["core.writelog_us_p99"] = na(percentile(wl, 99))
	v["core.force_us_p50"] = na(percentile(fo, 50))
	v["core.force_us_p99"] = na(percentile(fo, 99))
	ca, cb := m.after.client, m.before.client
	v["core.force_rounds_per_commit"] = ratio(d(ca.ForceRounds, cb.ForceRounds), commits)
	v["core.group_commit_share"] = ratio(d(ca.GroupCommits, cb.GroupCommits), d(ca.Forces, cb.Forces))
	v["core.stream_frames_per_commit"] = ratio(d(ca.StreamFrames, cb.StreamFrames), commits)
	v["core.resends_per_kcommit"] = ratio(1000*d(ca.Resends, cb.Resends), commits)
	v["core.stream_timeouts"] = d(ca.StreamTimeouts, cb.StreamTimeouts)
	v["core.stream_backoffs"] = d(ca.StreamBackoffs, cb.StreamBackoffs)
	v["core.open_ms_p50"] = durationsMS(opens).p(50)
	v["core.open_stalled_share"] = ratio(stalled, restarts)
	v["core.cursor_wait_ms_p50"] = na(durationsMS(waits).p(50))
	v["core.prefetch_hit_share"] = ratio(hits, hits+pwaits)
	v["core.cursor_streams_per_restart"] = ratio(cstreams, restarts)

	// wire: every packet that crossed a client's endpoint, by type.
	v["wire.packets_per_commit"] = ratio(pc.packetsAt(nodeClient), commits)
	v["wire.bytes_per_commit"] = ratio(float64(pc.bytes[nodeClient][dirSend].Load()+pc.bytes[nodeClient][dirRecv].Load()), commits)
	v["wire.records_per_frame"] = ratio(float64(pc.frameRecords.Load()), float64(pc.frames.Load()))
	v["wire.acks_per_commit"] = ratio(float64(pc.packets[nodeClient][dirRecv][wire.TNewHighLSN].Load()), commits)
	v["wire.packets_per_restart"] = ratio(pr.packetsAt(nodeClient), restarts)
	v["wire.encode_ns_per_frame"] = m.wire.encodeNS
	v["wire.decode_ns_per_frame"] = m.wire.decodeNS

	// transport: Send calls and one-way times during the commit slice.
	ow := spanDurationsUS(sp[spanOneWay], m.commitWin).sorted()
	v["transport.send_us_p50"] = spanDurationsUS(sp[spanSend], m.commitWin).p(50)
	v["transport.oneway_us_p50"] = percentile(ow, 50)
	v["transport.oneway_us_p99"] = percentile(ow, 99)
	v["transport.unmatched_sends"] = float64(unmatched)

	// server: dwell of force-carrying frames and of read requests, and
	// the server's own counters.
	storeBusy := make([]ivset, numServers)
	forceBusy := make([]ivset, numServers)
	for s := 0; s < numServers; s++ {
		onServer := func(x span) bool { return int(x.server) == s }
		forceBusy[s] = unionOf(spanIVs(sp[spanStoreForce], onServer))
		storeBusy[s] = forceBusy[s].union(unionOf(spanIVs(sp[spanAppend], onServer)))
	}
	fd := spanDurationsUS(sp[spanForceDwell], m.commitWin).sorted()
	v["server.force_dwell_us_p50"] = percentile(fd, 50)
	v["server.force_dwell_us_p99"] = percentile(fd, 99)
	var dwellSelf samples
	for _, s := range sp[spanForceDwell] {
		if s.start >= m.commitWin.lo && s.start < m.commitWin.hi {
			dwellSelf = append(dwellSelf, float64(selfTime(s.iv(), storeBusy[s.server]))/1e3)
		}
	}
	v["server.self_us_per_force"] = ratio(dwellSelf.sum(), float64(len(dwellSelf)))
	sa, sb := m.after.server, m.before.server
	v["server.forces_coalesced_share"] = ratio(d(sa.ForcesCoalesced, sb.ForcesCoalesced), d(sa.Forces, sb.Forces))
	v["server.force_rounds_per_commit"] = ratio(d(sa.ForceRounds, sb.ForceRounds), commits)
	v["server.queue_sheds"] = d(sa.QueueSheds, sb.QueueSheds)
	v["server.busy_sent"] = d(sa.BusySent, sb.BusySent)
	v["server.read_dwell_us_p50"] = spanDurationsUS(sp[spanReadDwell], m.restartWin).p(50)
	v["server.stream_packets_per_restart"] = ratio(d(m.restartC[1].server.StreamPackets, m.restartC[0].server.StreamPackets), restarts)
	serverPackets := pc.packetsAt(nodeServer)
	v["server.msgs_per_server_per_s"] = ratio(serverPackets, numServers*elapsed)

	// storage: the Store calls under those dwells.
	sf := spanDurationsUS(sp[spanStoreForce], m.commitWin).sorted()
	v["storage.append_us_p50"] = spanDurationsUS(sp[spanAppend], m.commitWin).p(50)
	v["storage.force_us_p50"] = percentile(sf, 50)
	v["storage.force_us_p99"] = percentile(sf, 99)
	v["storage.appends_per_commit"] = ratio(float64(pc.appends.Load()), commits)
	v["storage.forces_per_commit"] = ratio(float64(pc.storeForces.Load()), commits)
	busy := int64(0)
	for s := range forceBusy {
		busy += forceBusy[s].within(m.commitWin.lo, m.commitWin.hi)
	}
	v["storage.force_busy_share"] = ratio(float64(busy), float64(numServers*(m.commitWin.hi-m.commitWin.lo)))
	v["storage.read_us_p50"] = spanDurationsUS(sp[spanStoreRead], m.restartWin).p(50)
	v["storage.reads_per_restart"] = ratio(float64(pr.storeReads.Load()), restarts)
	v["storage.appended_bytes_per_user_byte"] = ratio(float64(pc.appendBytes.Load()), userBytes)
	v["storage.live_bytes_per_user_byte"] = ratio(float64(m.usage.LiveBytes+m.usage.ArchivedBytes), float64(m.after.engine.LogBytes+m.histBytes))

	v["retention.segments_reclaimed"] = d(m.after.reclaim.Reclaimed, m.before.reclaim.Reclaimed)
	v["retention.units_retired"] = d(m.after.reclaim.Retired, m.before.reclaim.Retired)
	v["retention.passes_deferred"] = d(m.after.reclaim.Deferred, m.before.reclaim.Deferred)
	v["retention.archived_bytes"] = float64(m.usage.ArchivedBytes)

	// process: CPU and allocation over the reference slice, where
	// recording is off and the spans themselves do not count.
	refCommits := float64(m.ref.commits())
	v["process.cpu_us_per_commit"] = ratio(float64(m.ref.cpu)/float64(time.Microsecond), refCommits)
	v["process.allocs_per_commit"] = ratio(float64(m.refMem[1].Mallocs-m.refMem[0].Mallocs), refCommits)
	v["process.alloc_bytes_per_commit"] = ratio(float64(m.refMem[1].TotalAlloc-m.refMem[0].TotalAlloc), refCommits)

	// capacity: Section 4.1's arithmetic for this workload's parameters.
	cp := capacity.PaperParams()
	cp.Clients, cp.TPSPerClient = m.sp.clients, m.commit.tps()/float64(m.sp.clients)
	cp.Servers, cp.Copies = numServers, copiesN
	cp.RecordsPerTxn, cp.BytesPerTxn = int(v["recman.records_per_commit"]+0.5), int(v["recman.log_bytes_per_commit"]+0.5)
	model := capacity.Analyze(cp)
	v["capacity.predicted_packets_per_commit"] = ratio(model.MessagesPerServer*numServers, model.AggregateTPS)
	v["capacity.predicted_msgs_per_server_per_s"] = model.MessagesPerServer

	v["trace.overhead_pct"] = 100 * ratio(m.ref.tps()-m.commit.tps(), m.ref.tps())

	rep := &layerReport{}
	acct := m.pathAccount(sp, storeBusy)
	v["recman.self_us_per_commit"] = na(acct.layer[0])
	v["core.self_us_per_commit"] = na(acct.layer[1])
	v["transport.path_us_per_commit"] = acct.layer[2]
	v["server.self_us_per_commit"] = acct.layer[3]
	v["storage.path_us_per_commit"] = acct.layer[4]
	p50 := durationsUS(m.commit.lat).p(50)
	sum := 0.0
	for _, x := range acct.layer {
		sum += x
	}
	gap := 100 * ratio(sum-p50, p50)
	if gap < 0 {
		gap = -gap
	}
	v["trace.path_gap_pct"] = gap
	rep.account = acct.render(m.sp, p50, sum, k1)
	rep.model = m.modelTable(v, model, pc, serverPackets)

	// The noise guard of the _lan workloads: a median one-way time below
	// the injected delay means the delay was not in force and the run
	// measured something else. The other side is reported, not refused:
	// the excess over the injected delay is time the in-memory network's
	// pump adds, and that pump is part of the program under test.
	if !m.sp.udpFsync && !m.pl.smoke {
		want := float64(linkDelay) / float64(time.Microsecond)
		got := v["transport.oneway_us_p50"]
		if got < 0.75*want {
			return nil, nil, fmt.Errorf("transport.oneway_us_p50 is %.1fus on a link injected with %.0fus: the delay was not in force", got, want)
		}
		if got > 1.25*want {
			rep.account = append(rep.account, fmt.Sprintf(
				"note: the median one-way time is %.0fus on a link injected with %.0fus; the %.0fus excess is the in-memory network's delivery pump, not the protocol",
				got, want, got-want))
		}
	}

	// Raw spans of the first spanWindow of the traced slice and of the
	// first restart.
	cut := m.commitWin.lo + int64(spanWindow)
	firstRestart := iv{m.restartWin.lo, m.restartWin.lo}
	if len(m.restarts) > 0 {
		firstRestart.hi += int64(m.restarts[0].open + m.restarts[0].recover)
	}
	for k := range sp {
		for _, s := range sp[k] {
			if (s.start >= m.commitWin.lo && s.start < cut) || (s.start >= firstRestart.lo && s.start < firstRestart.hi) {
				rep.spans = append(rep.spans, s)
			}
		}
	}
	sort.Slice(rep.spans, func(i, j int) bool { return rep.spans[i].start < rep.spans[j].start })
	return v, rep, nil
}

// pathShares is the blocking-path account of a median commit: how its
// Begin → Commit-return interval divides among the layers, each instant
// given to the deepest layer that was busy for this client node.
type pathShares struct {
	layer [5]float64 // recman, core, transport, server, storage; us per commit
	txns  int
}

var pathLayers = [5]string{"recman", "core", "transport", "server", "storage"}

// pathAccount divides the transactions whose duration lies between the
// 45th and 55th percentile. For one client node, storage time is where
// one of its forces dwelt on a server whose store was busy; server time
// is the rest of its force dwells; transport time is where one of its
// packets was in flight and nothing of it dwelt on a server; core time
// is the rest of its calls into the log; recman keeps what remains.
func (m *measurement) pathAccount(sp [numSpanKinds][]span, storeBusy []ivset) pathShares {
	var txns []span
	for _, s := range sp[spanTxn] {
		if s.start >= m.commitWin.lo && s.start < m.commitWin.hi {
			txns = append(txns, s)
		}
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i].dur < txns[j].dur })
	band := txns[len(txns)*45/100 : (len(txns)*55+99)/100]
	var acct pathShares
	acct.txns = len(band)
	if len(band) == 0 {
		return acct
	}
	type nodeSets struct{ core, transport, server, storage ivset }
	sets := make(map[uint32]*nodeSets)
	for _, t := range band {
		ns := sets[t.node]
		if ns == nil {
			of := func(x span) bool { return x.node == t.node }
			ns = &nodeSets{}
			ns.server = unionOf(spanIVs(sp[spanForceDwell], of))
			for s := range storeBusy {
				dwelt := unionOf(spanIVs(sp[spanForceDwell], func(x span) bool { return x.node == t.node && int(x.server) == s }))
				ns.storage = ns.storage.union(dwelt.intersect(storeBusy[s]))
			}
			ns.transport = unionOf(spanIVs(sp[spanOneWay], of)).subtract(ns.server)
			ns.core = unionOf(append(spanIVs(sp[spanWriteLog], of), spanIVs(sp[spanForce], of)...)).subtract(ns.transport).subtract(ns.server)
			ns.server = ns.server.subtract(ns.storage)
			sets[t.node] = ns
		}
		lo, hi := t.start, t.start+t.dur
		parts := [5]int64{1: ns.core.within(lo, hi), 2: ns.transport.within(lo, hi), 3: ns.server.within(lo, hi), 4: ns.storage.within(lo, hi)}
		parts[0] = t.dur - parts[1] - parts[2] - parts[3] - parts[4]
		for i, p := range parts {
			acct.layer[i] += float64(p) / 1e3
		}
	}
	for i := range acct.layer {
		acct.layer[i] /= float64(len(band))
	}
	return acct
}

func (a pathShares) render(sp *spec, p50, sum float64, k1 bool) []string {
	out := []string{
		fmt.Sprintf("blocking path of a median commit on %s (%d transactions between p45 and p55)", sp.name, a.txns),
		fmt.Sprintf("%-12s %12s %8s", "layer", "us/commit", "share"),
	}
	for i, name := range pathLayers {
		note := ""
		if !k1 && i < 2 {
			note = "  (K>1 bypasses the recman.Log seam: recman holds core's share too)"
		}
		out = append(out, fmt.Sprintf("%-12s %12.1f %7.1f%%%s", name, a.layer[i], 100*ratio(a.layer[i], sum), note))
	}
	out = append(out, fmt.Sprintf("%-12s %12.1f   against commit_p50_us %.1f of the same slice", "sum", sum, p50))
	return out
}

// modelTable sets Section 4.1's predictions for the workload's own
// parameters beside what the wrappers counted.
func (m *measurement) modelTable(v map[string]float64, model capacity.Report, pc *phaseCounts, serverPackets float64) []string {
	elapsed := m.commit.elapsed.Seconds()
	serverBytes := float64(pc.bytes[nodeServer][dirSend].Load() + pc.bytes[nodeServer][dirRecv].Load())
	row := func(what string, predicted, measured float64, unit string) string {
		return fmt.Sprintf("%-34s %14.1f %14.1f  %-6s x%.2f", what, predicted, measured, unit, ratio(measured, predicted))
	}
	return []string{
		fmt.Sprintf("Section 4.1 model vs measured on %s: %d clients, %.0f txn/s, M=%d, N=%d, %.0f records and %.0f bytes per txn, grouped",
			m.sp.name, m.sp.clients, m.commit.tps(), numServers, copiesN, v["recman.records_per_commit"], v["recman.log_bytes_per_commit"]),
		fmt.Sprintf("%-34s %14s %14s  %-6s %s", "", "predicted", "measured", "unit", "measured/predicted"),
		row("packets per commit", v["capacity.predicted_packets_per_commit"], v["wire.packets_per_commit"], "count"),
		row("messages per server per second", model.MessagesPerServer, v["server.msgs_per_server_per_s"], "1/s"),
		row("network load", model.NetworkBitsPerSec/1e6, serverBytes*8/elapsed/1e6, "Mbit/s"),
		row("log bytes per server per second", model.BytesPerServerPerSec, float64(pc.appendBytes.Load())/numServers/elapsed, "B/s"),
	}
}

// write stores the report under dir: the per-layer table with the path
// account and the model table below it, and the span window.
func (rep *layerReport) write(dir, workload string, seed int64, table string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := os.WriteFile(base+"-layers.txt", []byte(table), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + "-spans.csv")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,name,parent,server,node,client,lsn,start_us,dur_us")
	for _, s := range rep.spans {
		n := spanNames[s.kind]
		fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%.1f,%.1f\n", n.layer, n.name, n.parent, s.server, s.node, s.client, s.lsn, float64(s.start)/1e3, float64(s.dur)/1e3)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
