package sim

import (
	"strings"
	"testing"
)

func TestTableAddRowAndString(t *testing.T) {
	tb := &Table{ID: "TX", Title: "test", Columns: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.AddNote("hello %d", 5)
	s := tb.String()
	for _, want := range []string{"TX", "test", "a", "bb", "333", "note: hello 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestTableAddRowPanicsOnMismatch(t *testing.T) {
	tb := &Table{ID: "TX", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row accepted")
		}
	}()
	tb.AddRow("only one")
}

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "TX", Columns: []string{"a", "b"}}
	tb.AddRow("1", "x,y")
	tb.AddRow("2", `say "hi"`)
	csv := tb.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if lines[0] != "a,b" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != `1,"x,y"` {
		t.Fatalf("quoted comma row = %q", lines[1])
	}
	if lines[2] != `2,"say ""hi"""` {
		t.Fatalf("quoted quote row = %q", lines[2])
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456) != "1.235" {
		t.Errorf("F = %q", F(1.23456))
	}
	if Pct(0.5) != "50.0%" {
		t.Errorf("Pct = %q", Pct(0.5))
	}
	if I(42) != "42" {
		t.Errorf("I = %q", I(42))
	}
}

func TestParallelTrialsDeterministic(t *testing.T) {
	f := func(i int, seed uint64) uint64 { return seed ^ uint64(i) }
	a := ParallelTrials(100, 1, 7, f)
	b := ParallelTrials(100, 8, 7, f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
	}
	c := ParallelTrials(100, 4, 8, f)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different master seeds produced %d/100 equal trial results", same)
	}
}
