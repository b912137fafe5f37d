// Command segidxd serves a segment index over HTTP.
//
// The daemon builds (or reopens) an index — optionally sharded into a
// forest and optionally durable behind per-shard write-ahead logs — and
// exposes it as a JSON API:
//
//	POST /search    {"rect": {"min": [x,y], "max": [x,y]}}  or {"rects": [...]}
//	POST /stab      {"point": [x,y]}                        or {"points": [...]}
//	POST /count     {"rect": ...}                           or {"rects": [...]}
//	POST /insert    {"id": 1, "rect": {...}}
//	POST /delete    {"id": 1, "hint": {...}}
//	POST /bulkload  {"records": [{"id": 1, "rect": {...}}, ...]}
//	GET  /metrics   cache, latency, and engine counters
//	GET  /healthz   liveness probe
//
// Examples:
//
//	segidxd -addr :8080                                  # in-memory r-tree
//	segidxd -addr :8080 -durable idx.db -shards 4        # durable 4-shard forest
//	segidxd -addr :8080 -durable idx.db -flushevery 100  # group commit every 100 mutations
//	segidxd -addr :8080 -accel 10 -hybrid auto           # stab-accelerator sidecar on dim 0
//
// Reads fan out through the index's batch worker pool; query results are
// served from an LRU cache invalidated by a mutation epoch. On SIGINT or
// SIGTERM the daemon stops accepting connections, drains in-flight
// requests, and flushes the WAL before exiting, so every acknowledged
// mutation is durable after a graceful shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"segidx"
	"segidx/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		file        = flag.String("file", "", "store pages in a file (non-durable)")
		durable     = flag.String("durable", "", "store pages in a file behind a write-ahead log")
		shards      = flag.Int("shards", 1, "partition the index into n independent trees")
		dims        = flag.Int("dims", 2, "rectangle dimensionality (1-8), new indexes only")
		kind        = flag.String("kind", "sr", "index type for new indexes: r | sr")
		cacheSize   = flag.Int("cache", 4096, "result cache capacity in entries (0 disables)")
		poolBytes   = flag.Int("poolbytes", 0, "buffer pool budget in bytes (0 = unlimited)")
		parallelism = flag.Int("parallelism", 0, "batch/scatter worker bound (0 = GOMAXPROCS)")
		maxBody     = flag.Int64("maxbody", 1<<20, "maximum request body in bytes")
		flushEvery  = flag.Int("flushevery", 0, "flush (group commit) every n mutations; 0 = only at shutdown")
		drainFor    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		accelLevels = flag.Int("accel", 0, "attach a stab-accelerator sidecar with this hierarchy depth (1-16); 0 disables")
		accelDim    = flag.Int("acceldim", 0, "hot dimension for the -accel sidecar")
		hybrid      = flag.String("hybrid", "auto", "sidecar routing mode for -accel: off | always | auto")
	)
	flag.Parse()

	hybridMode, err := segidx.ParseHybridMode(*hybrid)
	if err != nil {
		log.Fatalf("segidxd: %v", err)
	}
	idx, err := openIndex(*file, *durable, *shards, *dims, *kind, *poolBytes, *parallelism,
		*accelLevels, *accelDim, hybridMode)
	if err != nil {
		log.Fatalf("segidxd: %v", err)
	}

	cacheCap := *cacheSize
	if cacheCap == 0 {
		cacheCap = -1 // Config treats 0 as "default"; -1 disables
	}
	srv := server.New(idx, server.Config{
		CacheEntries: cacheCap,
		MaxBodyBytes: *maxBody,
		FlushEvery:   *flushEvery,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("segidxd: serving %s (%d shard(s), %d dims) on %s",
		idx.Kind(), idx.Shards(), *dims, *addr)

	select {
	case <-ctx.Done():
		log.Printf("segidxd: shutting down, draining for up to %v", *drainFor)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
		err := httpSrv.Shutdown(drainCtx)
		cancel()
		// Close flushes every shard's WAL: acknowledged mutations are
		// durable before the process exits.
		err = errors.Join(err, idx.Close())
		if err != nil {
			log.Fatalf("segidxd: shutdown: %v", err)
		}
		log.Printf("segidxd: index flushed, bye")
	case err := <-errCh:
		idx.Close()
		log.Fatalf("segidxd: serve: %v", err)
	}
}

// openIndex builds or reopens the index described by the flags. An
// existing file (or forest manifest) is reopened — replaying WALs when
// durable — so restarting the daemon resumes where the last shutdown
// committed; a missing path builds a fresh index.
func openIndex(file, durable string, shards, dims int, kind string, poolBytes, parallelism,
	accelLevels, accelDim int, hybrid segidx.HybridMode) (*segidx.Index, error) {
	if file != "" && durable != "" {
		return nil, fmt.Errorf("-file and -durable are mutually exclusive")
	}
	opts := []segidx.Option{
		segidx.WithDims(dims),
		segidx.WithParallelism(parallelism),
		segidx.WithShards(shards),
	}
	if accelLevels > 0 {
		opts = append(opts,
			segidx.WithStabAccel(accelDim, accelLevels),
			segidx.WithHybridMode(hybrid))
	}
	if poolBytes > 0 {
		opts = append(opts, segidx.WithPoolBytes(poolBytes))
	}
	path := file
	if durable != "" {
		path = durable
		opts = append(opts, segidx.WithDurableFile(durable))
	} else if file != "" {
		opts = append(opts, segidx.WithFile(file))
	}
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			if durable != "" {
				return segidx.OpenDurable(path, opts...)
			}
			return segidx.Open(path, opts...)
		}
	}
	switch kind {
	case "r":
		return segidx.NewRTree(opts...)
	case "sr":
		return segidx.NewSRTree(opts...)
	default:
		return nil, fmt.Errorf("unknown -kind %q (want r or sr)", kind)
	}
}
