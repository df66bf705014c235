package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickWeightsPinned: Env's recipe, trained at a small sizing (80
// screens, 8 epochs) into a weights directory that does not exist yet,
// creates it and writes yolite.gob and yolite_masked.gob bit for bit as
// pinned. The hashes are a fixed point of the training path (generator,
// split, negatives, yolite.Train, weight IO): a change that moves them on
// purpose re-pins them here and says why.
func TestQuickWeightsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models, ~40 s")
	}
	dir := filepath.Join(t.TempDir(), "weights")
	e := newEnv(sizing{screens: 80, epochs: 8}, WithWeightsDir(dir))
	e.Float()
	e.Masked()
	for file, want := range map[string]string{
		"yolite.gob":        "f53ddfaee959cda719d09523167132cb118213313912d4eeb29f8e0f6e478df0",
		"yolite_masked.gob": "5b2e62703504501c6e61781844cc7a519593a103b9fce803c3b67b429e5e55b7",
	} {
		b, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s has sha256 %x, want %s", file, sum, want)
		}
	}
}
