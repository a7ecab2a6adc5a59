package seqdb

import (
	"fmt"

	"twsearch/internal/disktree"
	"twsearch/internal/storage"
)

// Backend selects the page source index files are read through: a
// zero-copy mmap of the whole file, the default, which falls back to the
// pool where the file cannot be mapped, or the lock-striped LRU buffer
// pool, the low-memory mode, which holds at most an index's PoolPages of
// its file. A mapped tree file cut after it was opened fails a search with
// ErrIndexRead, as a read through the pool does.
type Backend = storage.Backend

// The available storage backends. The zero value ("") means BackendMmap.
const (
	BackendPool = storage.BackendPool
	BackendMmap = storage.BackendMmap
)

// ParseBackend validates a backend name from a flag or config value; the
// empty string means the default, BackendMmap.
func ParseBackend(s string) (Backend, error) { return storage.ParseBackend(s) }

// Encoding selects the on-disk node record serialization of an index tree:
// v1 fixed-width or v2 compact varints (files about a third of the size).
// An index of a one-dimensional database is built in v1 unless its
// IndexSpec names v2; one of a database of dimension d > 1 in v2 unless it
// names v1. An index is built in one encoding; to change it, drop the index
// and build it again.
type Encoding = disktree.Encoding

// The available record encodings. In an IndexSpec the zero value means
// EncodingV1 for d = 1 and EncodingV2 for d > 1.
const (
	EncodingV1 = disktree.EncodingV1
	EncodingV2 = disktree.EncodingV2
)

// ParseEncoding validates an encoding name from a flag or config value; the
// empty string means EncodingV1.
func ParseEncoding(s string) (Encoding, error) { return disktree.ParseEncoding(s) }

// EnvelopeMode selects whether searches run the envelope lower-bound gate:
// one O(1) check per tree-edge row, in front of the DTW filter table. The
// gate never changes answers — only how much work a search does — so the
// zero value enables it.
type EnvelopeMode int

// The envelope modes. EnvelopesAuto and EnvelopesOn both run the gate
// (Auto is the zero value, so the default is on); EnvelopesOff disables
// it, mainly for ablation runs and work-counter baselines.
const (
	EnvelopesAuto EnvelopeMode = iota
	EnvelopesOff
	EnvelopesOn
)

// ParseEnvelopeMode validates an envelope-mode name from a flag or config
// value; the empty string means EnvelopesAuto.
func ParseEnvelopeMode(s string) (EnvelopeMode, error) {
	switch s {
	case "", "auto":
		return EnvelopesAuto, nil
	case "off":
		return EnvelopesOff, nil
	case "on":
		return EnvelopesOn, nil
	}
	return EnvelopesAuto, fmt.Errorf("seqdb: unknown envelope mode %q (want auto, on, or off)", s)
}

// OpenOptions tunes how a database (or each shard of a sharded database) is
// opened.
type OpenOptions struct {
	// Backend selects the page source for every index tree ("" = mmap;
	// BackendPool bounds the memory the trees are read through).
	Backend Backend

	// Envelopes toggles the envelope lower-bound gate on every index
	// opened or built through this handle (zero value = on).
	Envelopes EnvelopeMode
}
