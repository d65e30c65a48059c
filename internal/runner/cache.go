package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"hbcache/internal/fault"
	"hbcache/internal/sim"
)

// keyVersion tags the canonical encoding. Bump it whenever the meaning
// of a sim.Config field or the simulator's interpretation of one
// changes, so stale cached results from older binaries never resurface.
// v2: sim.Config and everything it embeds gained stable snake_case
// JSON names and textual port-kind/write-policy enums, changing the
// canonical encoding (and the stored Result encoding) wholesale.
// v3: prewarm_mode was added and its default (fast-forward) trains the
// branch predictor during prewarm, shifting IPC slightly; results
// cached under v2 were produced with the cold-predictor stream prewarm.
// v4: trace-backed workloads (sim.Config.Trace) joined the canonical
// encoding by content digest only — the location-specific path is
// dropped, so the same recording cached from any path or worker hits,
// and two different recordings can never alias however they are
// addressed on disk.
// v5: the workload generator draws dependence distances from their own
// counter-keyed stream and enters kernel mode by its instruction share,
// re-rolling every synthetic instruction stream.
const keyVersion = "hbcache-job-v5"

// keyEnvelope is what gets hashed: the version string plus the
// canonicalized config. sim.Config and everything it embeds are plain
// structs (no maps), so encoding/json emits fields in declaration order
// and the encoding is deterministic.
type keyEnvelope struct {
	Version string
	Config  sim.Config
}

// Canonical normalizes a config so different spellings of the same
// simulation share one cache entry: zero instruction windows become the
// defaults sim.Run would substitute anyway, and a trace reference is
// reduced to its content digest — the path only says where the bytes
// happened to live when the job was submitted.
func Canonical(cfg sim.Config) sim.Config {
	cfg = cfg.WithDefaults()
	if cfg.Trace != nil {
		cfg.Trace = &sim.TraceRef{Digest: cfg.Trace.Digest}
	}
	return cfg
}

// Key returns the content address of a simulation: the hex SHA-256 of
// the canonical encoding of its config. Configs that simulate
// identically map to the same key; any behavior-relevant field change
// maps to a different one. A trace-backed config must carry the
// trace's content digest — keying a path-only ref would let whatever
// bytes later occupy that path impersonate the cached result.
func Key(cfg sim.Config) (string, error) {
	if cfg.Trace != nil && cfg.Trace.Digest == "" {
		return "", fmt.Errorf("runner: trace ref has no content digest (path %q): resolve it before keying", cfg.Trace.Path)
	}
	b, err := json.Marshal(keyEnvelope{Version: keyVersion, Config: Canonical(cfg)})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Cache is the on-disk Store backend: a content-addressed store of
// simulation results, one JSON file per key, sharded by the key's
// first byte to keep directories small on big sweeps.
type Cache struct {
	dir string
	// faults, when non-nil, injects read/write errors and corrupted
	// bytes at the cache's fault sites for chaos testing.
	faults *fault.Registry
	// corrupt counts entries quarantined because they failed the
	// key or checksum verification in Get.
	corrupt atomic.Int64
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: creating cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// CorruptEntries reports how many corrupt entries this cache has
// quarantined since it was opened.
func (c *Cache) CorruptEntries() int64 { return c.corrupt.Load() }

// quarantine renames a corrupt entry to <name>.corrupt — out of Get's
// path and Len's count, preserved for postmortem — and counts it. The
// next Get is a clean miss, so the result is recomputed exactly once
// rather than re-parsed (and re-failed) every run. If the rename fails
// the file is removed outright; a corrupt entry must never survive
// where Get will find it again.
func (c *Cache) quarantine(p string) {
	c.corrupt.Add(1)
	if err := os.Rename(p, p+".corrupt"); err != nil {
		os.Remove(p)
	}
}

// Get returns the cached result for key, if present and intact. A
// missing file is a plain miss. A file that exists but fails to parse,
// carries the wrong key, or fails its checksum is quarantined (renamed
// *.corrupt, counted in CorruptEntries) and reported as a miss, so the
// simulation re-runs once and the bad bytes are kept for inspection.
// Entries from before checksums existed carry no Sum and quarantine the
// same way — re-deriving them is deterministic and cheap compared to
// trusting unverifiable bytes.
func (c *Cache) Get(key string) (sim.Result, bool) {
	// Cache sites have no caller context (hangs are unsupported here —
	// see fault.SiteCacheRead); injected errors behave as I/O misses.
	if err := c.faults.Fire(context.Background(), fault.SiteCacheRead); err != nil {
		return sim.Result{}, false
	}
	p := c.path(key)
	b, err := os.ReadFile(p)
	if err != nil {
		return sim.Result{}, false
	}
	var e StoreEntry
	if err := json.Unmarshal(b, &e); err != nil || !e.Verify(key) {
		c.quarantine(p)
		return sim.Result{}, false
	}
	return e.Result, true
}

// Put stores a result under key, atomically: written to a temp file in
// the same directory and renamed into place, so a killed process never
// leaves a half-written entry where Get will find it.
func (c *Cache) Put(key string, cfg sim.Config, res sim.Result) error {
	if err := c.faults.Fire(context.Background(), fault.SiteCacheWrite); err != nil {
		return err
	}
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	e := StoreEntry{Key: key, Config: cfg, Result: res}
	e.Seal()
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	// Chaos corruption happens after the checksum is computed, so the
	// file lands on disk genuinely self-inconsistent — exactly what a
	// torn write or bit rot produces.
	c.faults.Mangle(fault.SiteCacheBytes, b)
	tmp, err := os.CreateTemp(filepath.Dir(p), key+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// Len counts the entries currently stored, for tests and tooling.
// Quarantined *.corrupt files are not entries and are not counted.
func (c *Cache) Len() (int, error) {
	keys, err := c.Keys()
	return len(keys), err
}

// Keys lists every stored entry's key, sorted. Quarantined *.corrupt
// files are not entries and are not listed.
func (c *Cache) Keys() ([]string, error) {
	var keys []string
	err := filepath.WalkDir(c.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			keys = append(keys, strings.TrimSuffix(filepath.Base(path), ".json"))
		}
		return nil
	})
	sort.Strings(keys)
	return keys, err
}
