package shard

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"twsearch/internal/storage"
)

// Manifest describes a sharded database root: how many shards exist, which
// assignment function produced them, and which slice of the global sequence
// numbering each shard holds. It is persisted as a small line-based file
// (ManifestName) next to the shard directories:
//
//	shards=4
//	assign=contiguous
//	range=0:0:25
//	range=1:25:25
//	range=2:50:25
//	range=3:75:25
//
// Every range line is shard:start:count. Parsing is deliberately loud: a
// malformed value for a known key, a missing or duplicate range, or ranges
// that do not tile the sequence numbering are all errors — a silently
// misread manifest would route queries to the wrong shards and break the
// no-false-dismissal contract in the worst possible way, by dropping
// answers. Unknown keys are ignored for forward compatibility.
type Manifest struct {
	Shards int
	Assign string
	Ranges []Range
}

// NewContiguous builds the manifest of a fresh contiguous partitioning of n
// sequences over the given shard count.
func NewContiguous(n, shards int) (*Manifest, error) {
	ranges, err := Contiguous(n, shards)
	if err != nil {
		return nil, err
	}
	return &Manifest{Shards: shards, Assign: AssignContiguous, Ranges: ranges}, nil
}

// Sequences returns the total sequence count across all shards.
func (m *Manifest) Sequences() int {
	n := 0
	for _, r := range m.Ranges {
		n += r.Count
	}
	return n
}

// Validate checks the manifest's internal consistency. It is run by both
// Read and Write, so neither side can produce or accept a manifest that
// misroutes sequences.
func (m *Manifest) Validate() error {
	if m.Shards <= 0 {
		return fmt.Errorf("shard: manifest shard count %d must be positive", m.Shards)
	}
	if m.Assign != AssignContiguous {
		return fmt.Errorf("shard: manifest names unknown assignment function %q", m.Assign)
	}
	if len(m.Ranges) != m.Shards {
		return fmt.Errorf("shard: manifest declares %d shards but holds %d ranges", m.Shards, len(m.Ranges))
	}
	next := 0
	for i, r := range m.Ranges {
		if r.Count < 0 {
			return fmt.Errorf("shard: manifest range %d has negative count %d", i, r.Count)
		}
		if r.Start != next {
			return fmt.Errorf("shard: manifest range %d starts at %d, want %d (ranges must tile the sequence numbering)", i, r.Start, next)
		}
		next = r.End()
	}
	return nil
}

// Write persists the manifest to path with storage.Commit, validating first.
func (m *Manifest) Write(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shards=%d\n", m.Shards)
	fmt.Fprintf(&b, "assign=%s\n", m.Assign)
	for i, r := range m.Ranges {
		fmt.Fprintf(&b, "range=%d:%d:%d\n", i, r.Start, r.Count)
	}
	return storage.Commit(path, func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	})
}

// ReadManifest parses and validates a manifest file. Any malformed field is
// an error, never a default.
func ReadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	m := &Manifest{Shards: -1}
	sawAssign := false
	ranges := map[int]Range{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("shard: %s: line %q is not key=value", path, line)
		}
		v = strings.TrimSpace(v)
		switch k {
		case "shards":
			n, perr := strconv.Atoi(v)
			if perr != nil {
				return nil, fmt.Errorf("shard: %s: bad shards value %q", path, v)
			}
			m.Shards = n
		case "assign":
			m.Assign = v
			sawAssign = true
		case "range":
			parts := strings.Split(v, ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("shard: %s: bad range %q, want shard:start:count", path, v)
			}
			var nums [3]int
			for i, p := range parts {
				n, perr := strconv.Atoi(strings.TrimSpace(p))
				if perr != nil {
					return nil, fmt.Errorf("shard: %s: bad range %q, want shard:start:count", path, v)
				}
				nums[i] = n
			}
			if _, dup := ranges[nums[0]]; dup {
				return nil, fmt.Errorf("shard: %s: duplicate range for shard %d", path, nums[0])
			}
			ranges[nums[0]] = Range{Start: nums[1], Count: nums[2]}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("shard: reading %s: %w", path, err)
	}
	if m.Shards < 0 {
		return nil, fmt.Errorf("shard: %s: missing shards= line", path)
	}
	if !sawAssign {
		return nil, fmt.Errorf("shard: %s: missing assign= line", path)
	}
	m.Ranges = make([]Range, len(ranges))
	for id, r := range ranges {
		if id < 0 || id >= len(ranges) {
			return nil, fmt.Errorf("shard: %s: range for shard %d out of bounds of %d ranges", path, id, len(ranges))
		}
		m.Ranges[id] = r
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %s: %w", path, err)
	}
	return m, nil
}
