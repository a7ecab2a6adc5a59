// Command twsearchd serves one or more seqdb databases over the twsearch
// wire protocol (internal/wire). It is the network front end for the
// paper's search engine: clients stream subsequence matches without
// loading the index locally.
//
// Usage:
//
//	twsearchd -db [name=]dir [-db ...] [-route [name=]leg,leg,...] [-addr host:port] [flags]
//
// A -db dir may be a plain database directory or a sharded database root
// (holding a MANIFEST.shards); sharding is auto-detected and searches fan
// out over the shards. A -route mount assembles a routing tier over
// comma-separated legs — each leg a local directory (plain or sharded) or
// `@addr/db`, a database mounted on another twsearchd — serving them as
// one logical database with consecutive legs holding consecutive slices
// of the sequence numbering.
//
// SIGINT/SIGTERM trigger a graceful drain: listeners close, in-flight
// searches are canceled through their contexts, and the process exits
// once every connection has been answered (or -drain-timeout expires).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"twsearch/seqdb"
	"twsearch/seqdb/server"
)

// dbFlag collects repeated -db [name=]dir mounts in order.
type dbFlag struct {
	names []string
	dirs  []string
}

func (f *dbFlag) String() string { return strings.Join(f.dirs, ",") }

func (f *dbFlag) Set(v string) error {
	name, dir := "", v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, dir = v[:i], v[i+1:]
	}
	if dir == "" {
		return errors.New("empty database dir")
	}
	if name == "" {
		name = filepath.Base(filepath.Clean(dir))
	}
	f.names = append(f.names, name)
	f.dirs = append(f.dirs, dir)
	return nil
}

// routeFlag collects repeated -route [name=]leg,leg,... routed mounts.
type routeFlag struct {
	names []string
	specs [][]string
}

func (f *routeFlag) String() string {
	parts := make([]string, len(f.specs))
	for i, legs := range f.specs {
		parts[i] = strings.Join(legs, ",")
	}
	return strings.Join(parts, " ")
}

func (f *routeFlag) Set(v string) error {
	name, spec := "", v
	if i := strings.IndexByte(v, '='); i >= 0 {
		name, spec = v[:i], v[i+1:]
	}
	if spec == "" {
		return errors.New("empty route spec")
	}
	if name == "" {
		name = "routed"
	}
	legs := strings.Split(spec, ",")
	for _, leg := range legs {
		if strings.TrimSpace(leg) == "" {
			return fmt.Errorf("route %q has an empty leg", v)
		}
	}
	f.names = append(f.names, name)
	f.specs = append(f.specs, legs)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "twsearchd:", err)
		os.Exit(1)
	}
}

// run is main without the exit: the smoke test drives it in-process,
// learning the bound address from ready and stopping it with a signal.
func run(args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("twsearchd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var dbs dbFlag
	fs.Var(&dbs, "db", "database to serve, `[name=]dir` (repeatable; name defaults to the dir's base name; sharded roots auto-detected)")
	var routes routeFlag
	fs.Var(&routes, "route", "routed database, `[name=]leg,leg,...` where a leg is a local dir or @addr/db (repeatable; name defaults to \"routed\")")
	addr := fs.String("addr", "127.0.0.1:7433", "listen address (use :0 for an ephemeral port)")
	maxInFlight := fs.Int("max-in-flight", 0, "max concurrent searches before overload fast-fail (0 = default)")
	searchTimeout := fs.Duration("search-timeout", 0, "server-side cap per search (0 = none)")
	idleTimeout := fs.Duration("idle-timeout", 0, "drop connections idle this long (0 = default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")
	backendName := fs.String("backend", "", "storage backend for local index trees: pool (default) or mmap")
	envName := fs.String("envelopes", "", "envelope lower-bound cascade for local searches: auto (default, on), on, or off")
	quiet := fs.Bool("q", false, "suppress per-request access logs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(dbs.dirs) == 0 && len(routes.specs) == 0 {
		return errors.New("no databases: pass at least one -db [name=]dir or -route [name=]leg,...")
	}
	backend, err := seqdb.ParseBackend(*backendName)
	if err != nil {
		return err
	}
	envelopes, err := seqdb.ParseEnvelopeMode(*envName)
	if err != nil {
		return err
	}
	openOpts := seqdb.OpenOptions{Backend: backend, Envelopes: envelopes}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stdout, time.Now().Format("2006-01-02T15:04:05.000 ")+format+"\n", args...)
	}
	cfg := server.Config{
		MaxInFlight:   *maxInFlight,
		SearchTimeout: *searchTimeout,
		IdleTimeout:   *idleTimeout,
	}
	if !*quiet {
		cfg.Logf = logf
	}
	s := server.New(cfg)
	var mounted []func() error
	defer func() {
		for _, closeFn := range mounted {
			closeFn()
		}
	}()
	for i, dir := range dbs.dirs {
		if seqdb.IsSharded(dir) {
			db, err := seqdb.OpenShardedWith(dir, openOpts)
			if err != nil {
				return fmt.Errorf("open sharded %s: %w", dir, err)
			}
			mounted = append(mounted, db.Close)
			if err := s.AddSharded(dbs.names[i], db); err != nil {
				return err
			}
			logf("mounted sharded db %q from %s (%d sequences over %d shards, indexes: %s)",
				dbs.names[i], dir, db.Len(), db.Shards(), strings.Join(db.Indexes(), ", "))
			continue
		}
		db, err := seqdb.OpenWith(dir, openOpts)
		if err != nil {
			return fmt.Errorf("open %s: %w", dir, err)
		}
		mounted = append(mounted, db.Close)
		if err := s.AddDB(dbs.names[i], db); err != nil {
			return err
		}
		logf("mounted db %q from %s (%d sequences, indexes: %s)",
			dbs.names[i], dir, db.Len(), strings.Join(db.Indexes(), ", "))
	}
	for i, legSpecs := range routes.specs {
		legs := make([]server.Leg, len(legSpecs))
		for j, spec := range legSpecs {
			leg, closeFn, err := server.ParseLegSpecWith(spec, openOpts)
			if err != nil {
				return fmt.Errorf("route %q leg %s: %w", routes.names[i], spec, err)
			}
			mounted = append(mounted, closeFn)
			legs[j] = leg
		}
		router, err := server.NewRouter(context.Background(), legs)
		if err != nil {
			return fmt.Errorf("route %q: %w", routes.names[i], err)
		}
		if err := s.AddSource(routes.names[i], router); err != nil {
			return err
		}
		total := 0
		for _, r := range router.ShardRanges() {
			total += r.Count
		}
		logf("mounted routed db %q over %d legs (%d sequences, %d shards)",
			routes.names[i], router.Legs(), total, len(router.ShardRanges()))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logf("listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	select {
	case sig := <-sigCh:
		logf("received %v, draining (timeout %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		shutdownErr := s.Shutdown(ctx)
		if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
			return err
		}
		if shutdownErr != nil {
			return fmt.Errorf("drain: %w", shutdownErr)
		}
		m := s.Metrics()
		logf("drained cleanly: %d requests served, %d matches streamed", m.Requests, m.MatchesStreamed)
		return nil
	case err := <-serveErr:
		return err
	}
}
