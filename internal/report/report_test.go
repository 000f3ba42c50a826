package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title:   "Demo",
		Headers: []string{"name", "value"},
		Note:    "a note",
	}
	t.AddRow("short", 1)
	t.AddRow("a-much-longer-name", 12.5)
	return t
}

func TestRenderAligned(t *testing.T) {
	var sb strings.Builder
	sample().Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "Demo\n====") {
		t.Errorf("missing underlined title:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	// Header, separator, and data rows share one width.
	var width int
	for _, l := range lines {
		if strings.Contains(l, "name") || strings.Contains(l, "----") || strings.Contains(l, "short") {
			if width == 0 {
				width = len(l)
			} else if len(l) != width {
				t.Errorf("misaligned row %q (want width %d)", l, width)
			}
		}
	}
	if !strings.Contains(out, "note: a note") {
		t.Error("note not rendered")
	}
	if !strings.Contains(out, "12.50") {
		t.Error("float not formatted with two decimals")
	}
}

func TestCSV(t *testing.T) {
	var sb strings.Builder
	sample().CSV(&sb)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "name,value" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "short,1" {
		t.Errorf("row = %q", lines[1])
	}
	if len(lines) != 3 {
		t.Errorf("%d lines", len(lines))
	}
}

func TestBytes(t *testing.T) {
	cases := map[int64]string{
		8:         "8",
		1024:      "1K",
		16 << 10:  "16K",
		1 << 20:   "1M",
		3 << 20:   "3M",
		1500:      "1500", // not a clean multiple
		513 << 10: "513K",
	}
	for n, want := range cases {
		if got := Bytes(n); got != want {
			t.Errorf("Bytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestEmptyTable(t *testing.T) {
	var sb strings.Builder
	(&Table{Headers: []string{"a"}}).Render(&sb)
	if !strings.Contains(sb.String(), "a") {
		t.Error("empty table lost its header")
	}
}

func TestChartRendersSeries(t *testing.T) {
	var sb strings.Builder
	Chart(&sb, "Latency", []Series{
		{Name: "read", X: []float64{8, 64, 512, 4096}, Y: []float64{6.7, 40, 145, 145}},
		{Name: "write", X: []float64{8, 64, 512, 4096}, Y: []float64{20, 33, 33, 35}},
	}, DefaultChartOptions())
	out := sb.String()
	if !strings.Contains(out, "Latency") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "* read") || !strings.Contains(out, "o write") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Error("markers not plotted")
	}
	// Axis ticks present: min/max X formatted.
	if !strings.Contains(out, "4K") {
		t.Errorf("x tick missing:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	var sb strings.Builder
	Chart(&sb, "t", nil, DefaultChartOptions())
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty chart not handled")
	}
}

func TestChartMismatchedSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched series did not panic")
		}
	}()
	var sb strings.Builder
	Chart(&sb, "t", []Series{{Name: "bad", X: []float64{1}, Y: nil}}, DefaultChartOptions())
}

func TestChartLinearAxes(t *testing.T) {
	var sb strings.Builder
	opt := ChartOptions{Width: 20, Height: 5}
	Chart(&sb, "", []Series{{Name: "s", X: []float64{0, 10}, Y: []float64{0, 1}}}, opt)
	if !strings.Contains(sb.String(), "s") {
		t.Error("linear chart failed to render")
	}
}
