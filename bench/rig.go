package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"distlog"
	"distlog/internal/storage"
)

// callTimeout bounds each client call attempt and each wait for a force
// acknowledgement; it is core's own default. No packet is lost on either
// network and the slowest fsync is far below it, so it should never
// fire. core.open_stalled_share counts the restarts in which it did (see
// callsafe.go for the one way it can).
const callTimeout = 250 * time.Millisecond

// serverNode is one in-process log server and what backs it.
type serverNode struct {
	name  string
	srv   *distlog.Server
	store distlog.Store // as handed to the server (wrapped when traced)
	usage storage.UsageReporter
	comp  *distlog.Compactor
	arch  *distlog.Archive
}

// clientNode is one transaction-processing node: a log, the engine over
// it and the engine's stable store, which outlives a crash of the node.
type clientNode struct {
	id     distlog.ClientID
	log    *distlog.Client
	engine *distlog.Engine
	stable *distlog.StableStore
}

// rig is one workload's cluster: three servers and the clients beside
// them, all in this process.
type rig struct {
	spec    *spec
	seed    int64
	net     *distlog.Network // nil on UDP
	servers []*serverNode
	clients []*clientNode
	dir     string  // store directories of a udpFsync rig
	tr      *tracer // nil on untraced runs
}

func (r *rig) serverNames() []string {
	names := make([]string, len(r.servers))
	for i, s := range r.servers {
		names[i] = s.name
	}
	return names
}

// newRig starts the servers and opens the commit-phase clients. The
// link delay is not applied yet: see applyDelay.
func newRig(sp *spec, seed int64, tr *tracer) (*rig, error) {
	r := &rig{spec: sp, seed: seed, tr: tr}
	if sp.udpFsync {
		dir, err := os.MkdirTemp("", "distlog-bench-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
	} else {
		r.net = distlog.NewNetwork(seed)
	}
	for i := 0; i < numServers; i++ {
		if err := r.addServer(i); err != nil {
			r.close()
			return nil, err
		}
	}
	for i := 0; i < sp.clients; i++ {
		c, err := r.openClient(distlog.ClientID(i+1), distlog.NewStableStore(), sp.engine)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

func (r *rig) addServer(i int) error {
	node := &serverNode{}
	var ep distlog.Endpoint
	var store distlog.Store
	if r.spec.udpFsync {
		udp, err := distlog.ListenUDP("127.0.0.1:0")
		if err != nil {
			return err
		}
		ep, node.name = udp, udp.Addr()
		base := filepath.Join(r.dir, fmt.Sprintf("server-%d", i))
		arch, err := distlog.OpenArchive(base+"-archive", distlog.ArchiveOptions{})
		if err != nil {
			udp.Close()
			return err
		}
		seg, err := distlog.OpenSegStore(base, distlog.SegOptions{SegmentBytes: 1 << 20, Archive: arch})
		if err != nil {
			udp.Close()
			arch.Close()
			return err
		}
		// As logserverd wires it: the compactor paces itself off the
		// force-latency histogram the instrumented store feeds.
		reg := distlog.NewTelemetry()
		store = storage.Instrument(seg, reg, "seg")
		node.usage, node.arch = seg, arch
		node.comp = distlog.NewCompactor(distlog.CompactorConfig{
			Store:          seg,
			Retire:         arch,
			Interval:       250 * time.Millisecond,
			ForceHist:      reg.Histogram("storage.seg.force_latency_ns"),
			ForceP99Budget: uint64(5 * time.Millisecond),
		})
	} else {
		node.name = fmt.Sprintf("logserver-%d", i+1)
		ep = r.net.Endpoint(node.name)
		s, _, _, err := distlog.NewModelledStore(distlog.DefaultDiskGeometry(), 4)
		if err != nil {
			return err
		}
		store = s
		node.usage, _ = s.(storage.UsageReporter)
	}
	if r.tr != nil {
		ep = r.tr.wrapEndpoint(ep, nodeServer, i)
		store = r.tr.wrapStore(store, i)
	}
	node.store = store
	node.srv = distlog.NewServer(distlog.ServerConfig{
		Name:     node.name,
		Store:    store,
		Endpoint: ep,
		Epochs:   distlog.NewMemEpochHost(),
	})
	node.srv.Start()
	r.servers = append(r.servers, node)
	return nil
}

// clientEndpoint returns a fresh network attachment for a client node.
func (r *rig) clientEndpoint(id distlog.ClientID) (distlog.Endpoint, error) {
	var ep distlog.Endpoint
	if r.spec.udpFsync {
		udp, err := distlog.ListenUDP("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ep = newCallSafeEndpoint(udp)
	} else {
		ep = r.net.Endpoint(fmt.Sprintf("client-%d", id))
	}
	if r.tr != nil {
		ep = r.tr.wrapEndpoint(ep, nodeClient, int(id))
	}
	return ep, nil
}

// openLog runs distlog.Open for the client: handshakes, epoch, interval
// gather and the copy of the doubtful tail.
func (r *rig) openLog(id distlog.ClientID) (*distlog.Client, error) {
	ep, err := r.clientEndpoint(id)
	if err != nil {
		return nil, err
	}
	cfg := distlog.ClientConfig{
		ClientID:    id,
		Servers:     r.serverNames(),
		N:           copiesN,
		Streams:     r.spec.streams,
		Endpoint:    ep,
		CallTimeout: callTimeout,
	}
	if id != historyClientID {
		cfg.Delta = r.spec.delta // the restart history's node keeps core's default δ
	}
	l, err := distlog.Open(cfg)
	if err != nil {
		ep.Close()
		return nil, fmt.Errorf("open client %d: %w", id, err)
	}
	return l, nil
}

// openClient opens the client's log and recovers an engine over stable.
func (r *rig) openClient(id distlog.ClientID, stable *distlog.StableStore, opts distlog.EngineOptions) (*clientNode, error) {
	l, err := r.openLog(id)
	if err != nil {
		return nil, err
	}
	var rl distlog.RecoveryLog = l
	if r.tr != nil {
		rl = r.tr.wrapLog(l)
	}
	e, err := distlog.OpenEngine(rl, stable, opts)
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("open engine %d: %w", id, err)
	}
	return &clientNode{id: id, log: l, engine: e, stable: stable}, nil
}

// applyDelay turns the injected one-way latency on. It is called after
// every commit-phase client has finished its handshakes and after the
// restart history is written, so neither pays it; every measured
// commit and restart does.
func (r *rig) applyDelay() {
	if r.net != nil {
		r.net.SetFaults(distlog.Faults{FixedDelay: linkDelay})
	}
}

// clientStats sums the protocol counters of every stream of the log.
func clientStats(l *distlog.Client) distlog.ClientStats {
	var t distlog.ClientStats
	for i := 0; i < l.Streams(); i++ {
		s := l.Stream(i).Stats()
		t.Forces += s.Forces
		t.ForceRounds += s.ForceRounds
		t.GroupCommits += s.GroupCommits
		t.Resends += s.Resends
		t.CursorStreams += s.CursorStreams
		t.PrefetchHits += s.PrefetchHits
		t.PrefetchWaits += s.PrefetchWaits
		t.StreamFrames += s.StreamFrames
		t.StreamBackoffs += s.StreamBackoffs
		t.StreamTimeouts += s.StreamTimeouts
	}
	return t
}

// close stops every client, server and compactor and removes the store
// directories. It is safe on a partly built rig.
func (r *rig) close() {
	for _, c := range r.clients {
		c.log.Close()
	}
	r.clients = nil
	for _, s := range r.servers {
		if s.comp != nil {
			s.comp.Stop()
		}
		s.srv.Stop()
		s.store.Close()
		if s.arch != nil {
			s.arch.Close()
		}
	}
	r.servers = nil
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}
