package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"twsearch/seqdb"
	"twsearch/seqdb/client"
	"twsearch/seqdb/server"
)

// system is one workload set up and ready for traffic: the open database,
// and for the served workloads the in-process server on a loopback listener
// the benchmark owns, with one client connection per load goroutine.
type system struct {
	sp   spec
	dir  string
	open seqdb.OpenOptions
	opts seqdb.SearchOptions

	// The generated inputs and the duration of each set-up step, in seconds.
	data  *dataset
	ops   []op
	spans spans

	// Exactly one of db, sdb, vdb is set.
	db  *seqdb.DB
	sdb *seqdb.ShardedDB
	vdb *seqdb.VectorDB

	srv      *server.Server
	ln       *countingListener
	serveErr chan error
	clients  []*client.Client
}

// shardsDir is where a sharded workload's partitions live, under its directory.
const shardsDir = "shards"

// spans maps a set-up span name to its duration in seconds.
type spans map[string]float64

// openOptions resolves the exploration overrides by name at run time, so no
// encoding or backend identifier is compiled into the benchmark.
func openOptions(cfg config, sp spec) (seqdb.OpenOptions, error) {
	var o seqdb.OpenOptions
	backend := cfg.backend
	if backend == "" && sp.poolBackend {
		backend = "pool"
	}
	if backend != "" {
		b, err := seqdb.ParseBackend(backend)
		if err != nil {
			return o, err
		}
		o.Backend = b
	}
	env, err := seqdb.ParseEnvelopeMode(cfg.envelopes)
	if err != nil {
		return o, err
	}
	o.Envelopes = env
	return o, nil
}

// setup builds a workload from nothing — generate, ingest, index, partition,
// reopen, serve, warm up — timing each step. It is the system's write path:
// a format that buys read speed with build time shows here.
func setup(ctx context.Context, cfg config, sp spec, dir string, clients int) (*system, error) {
	s := &system{sp: sp, dir: dir, spans: spans{}, opts: seqdb.SearchOptions{Parallelism: cfg.parallelism}}
	steps := []step{{"workload.generate_s", func() error {
		s.data, s.ops = generate(cfg.seed, sp)
		return nil
	}}}
	if sp.trajectory {
		steps = append(steps, s.vectorSteps()...)
	} else {
		scalar, err := s.scalarSteps(cfg, clients)
		if err != nil {
			return nil, err
		}
		steps = append(steps, scalar...)
	}
	steps = append(steps, step{"workload.warmup_s", func() error { return s.warmUp(ctx) }})
	for _, st := range steps {
		t0 := time.Now()
		err := st.run()
		s.spans[st.name] = time.Since(t0).Seconds()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return s, nil
}

// step is one timed span of a set-up.
type step struct {
	name string
	run  func() error
}

// scalarSteps are the set-up steps of a DB or ShardedDB workload.
func (s *system) scalarSteps(cfg config, clients int) ([]step, error) {
	var err error
	if s.open, err = openOptions(cfg, s.sp); err != nil {
		return nil, err
	}
	ixspec := s.sp.index
	if cfg.encoding != "" {
		if ixspec.Encoding, err = seqdb.ParseEncoding(cfg.encoding); err != nil {
			return nil, err
		}
	}
	var db *seqdb.DB
	ingest := step{"seqdb.ingest_s", func() (err error) {
		if db, err = seqdb.Create(s.dir); err != nil {
			return err
		}
		for i, vals := range s.data.seqs {
			if err := db.Add(s.data.ids[i], vals); err != nil {
				return err
			}
		}
		return db.Save()
	}}
	serve := step{"server.start_s", func() error { return s.serve(cfg, clients) }}
	if s.sp.shards == 0 {
		return []step{
			ingest,
			{"seqdb.build_index_s", func() error { return errors.Join(db.BuildIndex(indexName, ixspec), db.Close()) }},
			{"seqdb.open_s", func() (err error) {
				s.db, err = seqdb.OpenWith(s.dir, s.open)
				return err
			}},
			serve,
		}, nil
	}
	shardDir := filepath.Join(s.dir, shardsDir)
	var sdb *seqdb.ShardedDB
	return []step{
		ingest,
		{"shard.partition_s", func() (err error) {
			sdb, err = db.PartitionInto(shardDir, s.sp.shards)
			return errors.Join(err, db.Close())
		}},
		{"seqdb.build_index_s", func() error { return errors.Join(sdb.BuildIndex(indexName, ixspec), sdb.Close()) }},
		{"seqdb.open_s", func() (err error) {
			s.sdb, err = seqdb.OpenShardedWith(shardDir, s.open)
			return err
		}},
		serve,
	}, nil
}

// vectorSteps are the set-up steps of the VectorDB workload, which is not
// served.
func (s *system) vectorSteps() []step {
	var vdb *seqdb.VectorDB
	return []step{
		{"seqdb.ingest_s", func() (err error) {
			if vdb, err = seqdb.CreateVector(s.dir, 2); err != nil {
				return err
			}
			for i, t := range s.data.trajs {
				if err := vdb.Add(s.data.ids[i], t); err != nil {
					return err
				}
			}
			return vdb.Save()
		}},
		{"seqdb.build_index_s", func() error { return errors.Join(vdb.BuildIndex(indexName, s.sp.vindex), vdb.Close()) }},
		{"seqdb.open_s", func() (err error) {
			s.vdb, err = seqdb.OpenVector(s.dir)
			return err
		}},
	}
}

// serve mounts the database on an in-process server behind a loopback
// listener and dials one client per load goroutine.
func (s *system) serve(cfg config, clients int) error {
	s.srv = server.New(server.Config{MaxQueryParallelism: cfg.parallelism})
	var err error
	if s.sdb != nil {
		err = s.srv.AddSharded(dbName, s.sdb)
	} else {
		err = s.srv.AddDB(dbName, s.db)
	}
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.ln = &countingListener{Listener: ln}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(s.ln) }()
	for i := 0; i < clients; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

// warmUp replays the first 5% of the operation list untimed, so buffer
// pools and sync.Pools are warm when measurement starts. Cold start is its
// own layer metric (seqdb.first_query_ms).
func (s *system) warmUp(ctx context.Context) error {
	for i := 0; i < max(1, len(s.ops)/20); i++ {
		if _, _, err := s.call(ctx, i%max(1, len(s.clients)), s.ops[i]); err != nil {
			return fmt.Errorf("operation %d: %w", i, err)
		}
	}
	return nil
}

// served reports whether operations cross the loopback server.
func (s *system) served() bool { return s.srv != nil }

// call runs one operation the way a user of the workload would: through
// client ci's connection for the served workloads, in-process for the
// VectorDB (which is not served).
func (s *system) call(ctx context.Context, ci int, o op) ([]seqdb.Match, seqdb.SearchStats, error) {
	if !s.served() {
		return s.direct(ctx, o)
	}
	c := s.clients[ci]
	switch o.kind {
	case opKNN:
		return c.SearchKNNWith(ctx, dbName, indexName, o.q, o.k, s.opts)
	case opScan:
		return c.SeqScan(ctx, dbName, o.q, o.eps)
	}
	return c.SearchWith(ctx, dbName, indexName, o.q, o.eps, s.opts)
}

// searcher is the part of the seqdb API shared by DB and ShardedDB.
type searcher interface {
	SearchWith(ctx context.Context, index string, q []float64, eps float64, opts seqdb.SearchOptions) ([]seqdb.Match, seqdb.SearchStats, error)
	SearchKNNWith(ctx context.Context, index string, q []float64, k int, opts seqdb.SearchOptions) ([]seqdb.Match, seqdb.SearchStats, error)
	SeqScanCtx(ctx context.Context, q []float64, eps float64) ([]seqdb.Match, seqdb.SearchStats, error)
}

// direct runs one operation in-process on the workload's own handle.
func (s *system) direct(ctx context.Context, o op) ([]seqdb.Match, seqdb.SearchStats, error) {
	if s.vdb != nil {
		vms, err := s.vdb.Search(indexName, o.qv, o.eps)
		ms := make([]seqdb.Match, len(vms))
		for i, m := range vms {
			ms[i] = seqdb.Match(m)
		}
		return ms, seqdb.SearchStats{}, err
	}
	if s.sdb != nil {
		return directOn(ctx, s.sdb, o, s.opts)
	}
	return directOn(ctx, s.db, o, s.opts)
}

func directOn(ctx context.Context, h searcher, o op, opts seqdb.SearchOptions) ([]seqdb.Match, seqdb.SearchStats, error) {
	switch o.kind {
	case opKNN:
		return h.SearchKNNWith(ctx, indexName, o.q, o.k, opts)
	case opScan:
		return h.SeqScanCtx(ctx, o.q, o.eps)
	}
	return h.SearchWith(ctx, indexName, o.q, o.eps, opts)
}

// close stops the server, waits for its goroutines, and closes every handle.
func (s *system) close() error {
	var errs []error
	for _, c := range s.clients {
		errs = append(errs, c.Close())
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if s.serveErr != nil {
			if err := <-s.serveErr; !errors.Is(err, server.ErrServerClosed) {
				errs = append(errs, err)
			}
		}
	}
	switch {
	case s.db != nil:
		errs = append(errs, s.db.Close())
	case s.sdb != nil:
		errs = append(errs, s.sdb.Close())
	case s.vdb != nil:
		errs = append(errs, s.vdb.Close())
	}
	return errors.Join(errs...)
}

// treeFiles lists the workload's index tree files (one per shard).
func (s *system) treeFiles() ([]string, error) {
	var files []string
	err := filepath.WalkDir(s.dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && filepath.Ext(path) == ".twt" {
			files = append(files, path)
		}
		return err
	})
	return files, err
}

// indexBytes is the summed size of the workload's tree files.
func (s *system) indexBytes() (int64, error) {
	files, err := s.treeFiles()
	var total int64
	for _, f := range files {
		st, serr := os.Stat(f)
		if serr != nil {
			return 0, serr
		}
		total += st.Size()
	}
	return total, err
}

// countingListener counts the bytes the server writes to its connections,
// on the benchmark's own side of the socket.
type countingListener struct {
	net.Listener
	out atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, out: &l.out}, nil
}

type countingConn struct {
	net.Conn
	out *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}
