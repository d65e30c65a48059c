package snapshot

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbcache/internal/fault"
)

type payload struct {
	Name  string   `json:"name"`
	Count uint64   `json:"count"`
	Data  []uint64 `json:"data"`
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := payload{Name: "gcc", Count: 42, Data: []uint64{1, 2, 3}}
	b, err := Encode("test-kind", in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(b, "test-kind", &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Count != in.Count || len(out.Data) != 3 {
		t.Fatalf("round trip mangled payload: %+v", out)
	}
}

func TestDecodeRejectsTampering(t *testing.T) {
	b, err := Encode("test-kind", payload{Name: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte; the checksum must catch it.
	tampered := append([]byte(nil), b...)
	i := strings.Index(string(tampered), "gcc")
	tampered[i] = 'x'
	var out payload
	if err := Decode(tampered, "test-kind", &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered bytes decoded: err=%v", err)
	}
}

func TestDecodeRejectsWrongKindAndVersion(t *testing.T) {
	b, err := Encode("kind-a", payload{})
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(b, "kind-b", &out); !errors.Is(err, ErrKind) {
		t.Fatalf("wrong kind accepted: err=%v", err)
	}
	// A future format version must fail closed, not misparse.
	future := strings.Replace(string(b), fmt.Sprintf(`"format":%d`, Format), `"format":99`, 1)
	if err := Decode([]byte(future), "kind-a", &out); !errors.Is(err, ErrVersion) {
		t.Fatalf("future format accepted: err=%v", err)
	}
}

// TestPreviousFormatRejected pins the latest Format bump: a checkpoint
// sealed by the previous format, checksum intact, carries state from
// the previous instruction stream and must fail with ErrVersion, and
// Load must quarantine it rather than resume from it.
func TestPreviousFormatRejected(t *testing.T) {
	raw, err := json.Marshal(payload{Name: "gcc", Count: 800_000})
	if err != nil {
		t.Fatal(err)
	}
	e := Envelope{Format: Format - 1, Kind: "test-kind", Payload: raw}
	if e.Sum, err = e.sum(); err != nil {
		t.Fatal(err)
	}
	old, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(old, "test-kind", &out); !errors.Is(err, ErrVersion) {
		t.Fatalf("previous-format envelope decoded: err=%v", err)
	}
	path := filepath.Join(t.TempDir(), "prewarm.json")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Load(path, "test-kind", &out, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("Load of a previous-format file: err=%v, want ErrVersion", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("previous-format file not quarantined: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "snap.json")
	in := payload{Name: "li", Count: 7}
	if err := Save(path, "test-kind", in, nil); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Load(path, "test-kind", &out, nil); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Count != in.Count {
		t.Fatalf("round trip mangled payload: %+v", out)
	}
}

func TestLoadMissingFile(t *testing.T) {
	var out payload
	err := Load(filepath.Join(t.TempDir(), "absent.json"), "test-kind", &out, nil)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err=%v, want os.ErrNotExist", err)
	}
}

func TestLoadQuarantinesCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, []byte("{not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := Quarantined()
	var out payload
	if err := Load(path, "test-kind", &out, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt file: err=%v, want ErrCorrupt", err)
	}
	if Quarantined() != before+1 {
		t.Fatalf("quarantine counter %d, want %d", Quarantined(), before+1)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt file left in place")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// Every future load of the same path must miss cleanly, not retry
	// the bad bytes.
	if err := Load(path, "test-kind", &out, nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("second load: err=%v, want os.ErrNotExist", err)
	}
}

// TestFaultInjectedCorruption drives the snapshot.write corrupt-rule:
// the file lands genuinely self-inconsistent on disk and the next load
// quarantines it, exactly like a torn write.
func TestFaultInjectedCorruption(t *testing.T) {
	reg := fault.New(1)
	rule, err := fault.ParseRule("snapshot.write:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	reg.Add(rule)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := Save(path, "test-kind", payload{Name: "gcc"}, reg); err != nil {
		t.Fatalf("corrupt-rule save should still write: %v", err)
	}
	var out payload
	// Which verification layer trips depends on which bytes the mangle
	// hit; any of the three sentinel failures is a correct catch.
	err = Load(path, "test-kind", &out, nil)
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrKind) {
		t.Fatalf("mangled file decoded: err=%v", err)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}

// TestFaultInjectedReadError pins that an injected read failure
// surfaces without touching the (healthy) file.
func TestFaultInjectedReadError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := Save(path, "test-kind", payload{}, nil); err != nil {
		t.Fatal(err)
	}
	reg := fault.New(1)
	rule, err := fault.ParseRule("snapshot.read:error")
	if err != nil {
		t.Fatal(err)
	}
	reg.Add(rule)
	var out payload
	if err := Load(path, "test-kind", &out, reg); err == nil {
		t.Fatal("injected read error did not surface")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("healthy file disturbed by injected error: %v", err)
	}
	if reg.Fired(fault.SiteSnapshotRead) == 0 {
		t.Fatal("read site never fired")
	}
}

func TestFireContext(t *testing.T) {
	// A nil registry must be a total no-op on both paths.
	if err := (*fault.Registry)(nil).Fire(context.Background(), fault.SiteSnapshotRead); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecode throws arbitrary bytes at the verification path: it must
// reject or accept, never panic, and anything it accepts must re-encode
// to bytes it accepts again.
func FuzzDecode(f *testing.F) {
	seed, err := Encode("fuzz-kind", payload{Name: "gcc", Count: 3, Data: []uint64{9}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add([]byte(`{"format":1,"kind":"fuzz-kind","payload":{},"sum":"00"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out payload
		if err := Decode(data, "fuzz-kind", &out); err != nil {
			return
		}
		again, err := Encode("fuzz-kind", out)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		var out2 payload
		if err := Decode(again, "fuzz-kind", &out2); err != nil {
			t.Fatalf("re-encoded bytes rejected: %v", err)
		}
	})
}
