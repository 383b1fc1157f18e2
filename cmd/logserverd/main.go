// Command logserverd runs a standalone log server over UDP with a
// durable segmented store, suitable for multi-process deployments of
// the distributed logging service.
//
// Usage:
//
//	logserverd -listen 127.0.0.1:7700 -data /var/lib/distlog/server1 \
//	           -metrics 127.0.0.1:7780
//
// -data names a directory of fixed-size append segments (Section 5.3
// log space management; -segment-bytes sets their capacity):
// truncation-point advances reclaim whole segments, and a background
// compactor migrates cold fully-stable segments into the write-once
// archive tier named by -archive, pacing itself off the force-latency
// histogram so reclamation never blows the force p99 (-compact-budget).
// Disk usage (live, reclaimable, and archived bytes; segment counts)
// is exported through the -metrics listener — `logctl du` renders it.
//
// The -metrics listener serves the telemetry registry: a JSON snapshot
// at /metrics (and /), a human-readable page at /debug/telemetry, and
// the recent LSN-lifecycle trace at /debug/trace. `logctl stats`
// fetches and renders the JSON snapshot.
//
// Stop with SIGINT/SIGTERM; the store is synced and closed cleanly
// (though the design tolerates unclean death: the stream's torn tail
// is discarded on the next start, and nothing acknowledged is ever in
// the tail).
//
// SIGHUP puts the server into administrative drain (leave): every
// write and force is answered with a Redirect hint while reads,
// interval lists, and epoch requests keep working, so clients migrate
// their write sets elsewhere (see `logctl migrate`) before a final
// SIGTERM takes the node down for good.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distlog/internal/retention"
	"distlog/internal/server"
	"distlog/internal/storage"
	"distlog/internal/telemetry"
	"distlog/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7700", "UDP address to serve on")
	data := flag.String("data", "distlog-server", "directory of the log stream's segment files")
	stats := flag.Duration("stats", time.Minute, "statistics reporting interval (0 = silent)")
	metrics := flag.String("metrics", "", "HTTP address serving /metrics JSON and /debug/telemetry (empty = off)")
	traceCap := flag.Int("trace", 4096, "LSN-lifecycle trace ring capacity (0 = tracing off)")
	queueDepth := flag.Int("queue-depth", 0, "per-session message queue bound (0 = default)")
	sessionIdle := flag.Duration("session-idle", 0, "evict sessions idle this long (0 = default, <0 = never)")
	segmentBytes := flag.Int64("segment-bytes", 0, "segment capacity in bytes (0 = 64 MiB)")
	archiveDir := flag.String("archive", "", "directory of the write-once archive tier (empty = reclaim dead segments only)")
	archiveVolumeBytes := flag.Int64("archive-volume-bytes", 0, "archive volume capacity in bytes; full volumes below every client's truncation floor are retired wholesale (0 = 64 MiB)")
	compactInterval := flag.Duration("compact-interval", time.Second, "pause between background compaction attempts")
	compactBudget := flag.Duration("compact-budget", 5*time.Millisecond, "force p99 above which compaction backs off (0 = unpaced)")
	flag.Parse()

	reg := telemetry.NewRegistry()
	if *traceCap > 0 {
		reg.EnableTrace(*traceCap)
	}

	if *segmentBytes < 0 {
		log.Fatalf("-segment-bytes %d: want a capacity, or 0 for the default", *segmentBytes)
	}
	var arch *retention.Archive
	var archTier storage.ArchiveTier
	if *archiveDir != "" {
		a, err := retention.OpenArchive(*archiveDir, retention.ArchiveOptions{VolumeBytes: *archiveVolumeBytes})
		if err != nil {
			log.Fatalf("opening archive: %v", err)
		}
		arch, archTier = a, a
	}
	store, err := storage.OpenSegStore(*data, storage.SegOptions{
		SegmentBytes: *segmentBytes,
		Archive:      archTier,
	})
	if err != nil {
		log.Fatalf("opening store: %v", err)
	}
	cfg := retention.CompactorConfig{
		Store:          store,
		Interval:       *compactInterval,
		ForceHist:      reg.Histogram("storage.seg.force_latency_ns"),
		ForceP99Budget: uint64(*compactBudget),
		OnError:        func(err error) { log.Printf("compaction: %v", err) },
	}
	if arch != nil {
		cfg.Retire = arch
	}
	compactor := retention.NewCompactor(cfg)
	ep, err := transport.ListenUDP(*listen)
	if err != nil {
		log.Fatalf("listening: %v", err)
	}
	srv := server.New(server.Config{
		Name:        *listen,
		Store:       storage.Instrument(store, reg, "seg"),
		Endpoint:    transport.Instrument(ep, reg, "net.udp"),
		Epochs:      server.NewMemEpochHost(),
		QueueDepth:  *queueDepth,
		SessionIdle: *sessionIdle,
		Telemetry:   reg,
	})
	srv.Start()
	log.Printf("log server on %s, store %s, clients %v", ep.Addr(), *data, store.Clients())

	// Export disk usage through the registry so /metrics (and `logctl
	// du`) can report how much log space is live, reclaimable, and
	// archived.
	usageStop := make(chan struct{})
	go func() {
		g := func(name string) *telemetry.Gauge { return reg.Gauge("storage.disk." + name) }
		tick := time.NewTicker(2 * time.Second)
		defer tick.Stop()
		for {
			u := store.Usage()
			g("live_bytes").Set(u.LiveBytes)
			g("reclaimable_bytes").Set(u.ReclaimableBytes)
			g("archived_bytes").Set(u.ArchivedBytes)
			g("archive_reclaimable").Set(u.ArchiveReclaimableBytes)
			g("segments").Set(int64(u.Segments))
			g("sealed_segments").Set(int64(u.SealedSegments))
			select {
			case <-usageStop:
				return
			case <-tick.C:
			}
		}
	}()

	if *metrics != "" {
		go func() {
			log.Printf("telemetry on http://%s/metrics", *metrics)
			if err := http.ListenAndServe(*metrics, telemetry.Handler(reg)); err != nil {
				log.Printf("telemetry listener: %v", err)
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	drain := make(chan os.Signal, 1)
	signal.Notify(drain, syscall.SIGHUP)
	go func() {
		for range drain {
			srv.Leave()
			log.Printf("SIGHUP: administrative drain — writes draw Redirect, reads keep working; SIGTERM once clients have migrated")
		}
	}()
	if *stats > 0 {
		go func() {
			// Report from the registry snapshot, and stay silent across
			// intervals where nothing moved — an idle server should not
			// fill its log with identical lines.
			last := reg.Snapshot()
			for range time.Tick(*stats) {
				snap := reg.Snapshot()
				if snap.Equal(last) {
					continue
				}
				last = snap
				log.Printf("packets=%d records=%d forces=%d nacks=%d sheds=%d reads=%d sessions=%d",
					snap.Counters["server.packets_received"],
					snap.Counters["server.records_appended"],
					snap.Counters["server.forces"],
					snap.Counters["server.nacks_sent"],
					snap.Counters["server.sheds"],
					snap.Counters["server.reads_served"],
					snap.Gauges["server.sessions"])
				if h, ok := snap.Histograms["server.force.latency_ns"]; ok && h.Count > 0 {
					log.Printf("force latency: n=%d mean=%s p50=%s p99=%s",
						h.Count, time.Duration(h.Mean()),
						time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.99)))
				}
			}
		}()
	}
	<-stop
	srv.Stop()
	close(usageStop)
	compactor.Stop()
	if err := store.Close(); err != nil {
		log.Fatalf("closing store: %v", err)
	}
	if arch != nil {
		if err := arch.Close(); err != nil {
			log.Fatalf("closing archive: %v", err)
		}
	}
	fmt.Println("log server stopped")
}
