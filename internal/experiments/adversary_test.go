package experiments

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/auigen"
	"repro/internal/frauddroid"
	"repro/internal/uikit"
)

// TestRecallUnderAttackFrauddroid drives the eval loop end to end with the
// trainless metadata backend: zero-knob "attacked" screens must score exactly
// like the clean ones, and the observe hook must hand the adapter the screen
// whose pixels are being scored.
func TestRecallUnderAttackFrauddroid(t *testing.T) {
	cfg := DataConfig()
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	clean, attacked := AttackScreenSets(seeds, auigen.Knobs{}, cfg)
	if len(clean) != len(seeds) || len(attacked) != len(seeds) {
		t.Fatalf("screen sets %d/%d, want %d", len(clean), len(attacked), len(seeds))
	}

	var cur *uikit.Screen
	fd := &frauddroid.ViewAdapter{Screen: func() *uikit.Screen { return cur }}
	row := RecallUnderAttack("frauddroid", fd, clean, attacked, 0.5, func(s *uikit.Screen) { cur = s })
	if row.Clean != row.Attacked {
		t.Fatalf("zero-knob attack changed recall: clean %+v vs attacked %+v", row.Clean, row.Attacked)
	}
	if row.Drop() != 0 {
		t.Fatalf("zero-knob attack reports drop %.3f", row.Drop())
	}
	if row.Clean.UPO == 0 {
		t.Fatal("frauddroid found no UPOs on clean screens — observe hook broken?")
	}

	// Determinism: the whole eval replays exactly.
	again := RecallUnderAttack("frauddroid", fd, clean, attacked, 0.5, func(s *uikit.Screen) { cur = s })
	if row != again {
		t.Fatalf("eval not deterministic: %+v vs %+v", row, again)
	}
}

func TestAttackTableFormat(t *testing.T) {
	rows := []AttackRow{
		{Backend: "yolite", Clean: RecallPoint{UPO: 0.9, AGO: 0.8, All: 0.85}, Attacked: RecallPoint{UPO: 0.4, AGO: 0.7, All: 0.55}},
		{Backend: "yolite-hardened", Clean: RecallPoint{UPO: 0.88, AGO: 0.8, All: 0.84}, Attacked: RecallPoint{UPO: 0.7, AGO: 0.75, All: 0.72}},
	}
	out := AttackTable(rows, 0.9).Format()
	for _, want := range []string{"yolite", "yolite-hardened", "0.850", "0.550", "0.300"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestAttackSweepReplays runs the whole -attack loop at toy size, twice: the
// report must replay exactly from its seed (CI compares the full-size one
// byte for byte against BENCH_adversary.json) and its rows must run from the
// attacked model to the hardened one, the pair the gap accounting reads.
func TestAttackSweepReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("searches, mines and fine-tunes a model")
	}
	sweep := AttackSweep{
		Seed: 7002, Restarts: 1, Iters: 5, Screens: 2, EvalN: 4, CorpusN: 4,
		IoU: 0.5, Weights: "../../weights", SkipRCNN: true, HardenEpochs: 1,
	}
	// Once through Run and the file it writes, once through sweep.
	var table strings.Builder
	sweep.Out = filepath.Join(t.TempDir(), "adv.json")
	if err := sweep.Run(&table); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(sweep.Out)
	if err != nil {
		t.Fatal(err)
	}
	a := new(benchAdversary)
	if err := json.Unmarshal(data, a); err != nil {
		t.Fatal(err)
	}
	b, err := sweep.sweep(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	var order []string
	for _, r := range a.Recall {
		order = append(order, r.Backend)
	}
	if want := []string{"yolite", "frauddroid", "yolite-hardened"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("recall rows %v, want %v", order, want)
	}
	if !strings.Contains(table.String(), "yolite-hardened") || a.Command != "go run ./cmd/darpa-eval -attack -attack-seed 7002 -attack-skip-rcnn" {
		t.Fatalf("table %q, command %q", table.String(), a.Command)
	}
}

// TestPaperAttackSweepMatchesArtefact: darpa-eval -attack runs
// PaperAttackSweep, and BENCH_adversary.json records the protocol it was
// made with. CI regenerates the file byte for byte, so the two must name the
// same sweep: a change to either one alone fails here.
func TestPaperAttackSweepMatchesArtefact(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_adversary.json")
	if err != nil {
		t.Fatal(err)
	}
	var a benchAdversary
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	f := PaperAttackSweep(7002)
	got := []any{a.Seed, a.IoU, a.Search.Restarts, a.Search.Iterations, a.Search.Screens,
		a.Corpus.Candidates, a.EvalScreens, a.HardenEpochs, a.Command}
	want := []any{f.Seed, f.IoU, f.Restarts, f.Iters, f.Screens,
		f.CorpusN, f.EvalN, f.HardenEpochs, f.command()}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCH_adversary.json records seed, iou, restarts, iterations, screens, candidates, eval_screens, harden_epochs, command\n%v\nbut PaperAttackSweep(7002) is\n%v", got, want)
	}
}
