package stats

import (
	"math"
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value counter must read 0")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("reset counter must read 0")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("division by zero must return 0")
	}
	if got := Ratio(3, 4); got != 0.75 {
		t.Errorf("Ratio(3,4) = %v, want 0.75", got)
	}
}

func TestGeoMean(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("empty GeoMean must be 0")
	}
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	// Non-positive values are ignored rather than poisoning the result.
	if got := GeoMean([]float64{0, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(0,4) = %v, want 4", got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty Mean must be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestTableString(t *testing.T) {
	tb := NewTable("bench", "ipc")
	tb.AddRow("gcc", "1.235")
	tb.AddRow("tomcatv") // short row pads
	out := tb.String()
	if !strings.Contains(out, "bench") || !strings.Contains(out, "1.235") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(`x,"y`, "z")
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,""y"`) {
		t.Errorf("CSV escaping broken: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header broken: %q", csv)
	}
}
