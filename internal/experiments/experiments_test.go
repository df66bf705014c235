package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/yolite"
)

// quickEnv builds a small environment; model-dependent tests inject a
// briefly trained detector to keep runtimes down.
func quickEnv(t testing.TB) *Env {
	t.Helper()
	return NewEnv(WithQuick())
}

func TestTable1RowsAndTotal(t *testing.T) {
	env := quickEnv(t)
	tab := env.Table1()
	if len(tab.Rows) != 8 { // 7 subjects + total
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if tab.Rows[7][0] != "Total" {
		t.Fatalf("last row %v", tab.Rows[7])
	}
	// Advertisement should dominate, like Table I.
	if !strings.Contains(tab.Rows[0][0], "Advertisement") {
		t.Fatalf("first row %v", tab.Rows[0])
	}
}

func TestTable2SplitConsistency(t *testing.T) {
	env := quickEnv(t)
	tab := env.Table2()
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// 6:2:2 on 120 quick samples.
	if tab.Rows[0][3] != "72" || tab.Rows[1][3] != "24" || tab.Rows[2][3] != "24" {
		t.Fatalf("split totals %v %v %v", tab.Rows[0], tab.Rows[1], tab.Rows[2])
	}
}

func TestUserStudyTable(t *testing.T) {
	tab := UserStudyTable()
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	if !strings.Contains(tab.PaperNote, "F1=true") {
		t.Fatalf("findings failed: %s", tab.PaperNote)
	}
}

func TestLayoutTable(t *testing.T) {
	env := quickEnv(t)
	tab := env.LayoutTable()
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "Table X", Title: "demo", Header: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, PaperNote: "note"}
	out := tab.Format()
	for _, want := range []string{"Table X", "demo", "a", "bb", "note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// TestEndToEndQuick exercises the model-dependent tables and the device
// simulation with a briefly trained detector.
func TestEndToEndQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end experiment test skipped in -short mode")
	}
	env := quickEnv(t)
	pool := append(append([]*dataset.Sample{}, env.Split().Train...), env.Split().Val...)
	m := yolite.Train(pool, yolite.TrainConfig{Epochs: 6, Seed: ModelSeed})
	env.SetFloat(m)

	t3 := env.Table3()
	if len(t3.Rows) != 3 {
		t.Fatalf("Table III rows: %d", len(t3.Rows))
	}
	// Device experiments with the quick model.
	env.Quick = true
	r := env.runApp(0, 0, core.ModeFull, true)
	if r.activity.Analyses == 0 {
		t.Fatal("device run analysed no screens")
	}
	if r.eventsTotal == 0 {
		t.Fatal("device run emitted no events")
	}
	act := env.RunAblationDebounce(true)
	actNo := env.RunAblationDebounce(false)
	if actNo.Analyses <= act.Analyses {
		t.Fatalf("debounce should reduce analyses: %d vs %d", act.Analyses, actNo.Analyses)
	}
}
