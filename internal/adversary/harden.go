package adversary

// Adversarial fine-tuning: clone the deployed model and continue training on
// a mix of mined attacked screens and their clean counterparts. The mix
// matters — fine-tuning on attacked screens alone forgets the clean
// distribution (recall on unattacked traffic drops), so Harden interleaves
// both and keeps the learning rate well below the from-scratch schedule.

import (
	"repro/internal/auigen"
	"repro/internal/dataset"
	"repro/internal/yolite"
)

// hardenLR is the fine-tune learning rate, ~1/3 of the from-scratch rate.
const hardenLR = 1e-3

// HardenConfig tunes the fine-tune pass.
type HardenConfig struct {
	// Epochs over the mixed pool (default 12).
	Epochs int
	// Seed drives shuffling (default 1).
	Seed int64
	// Progress, when non-nil, receives (epoch, meanLoss).
	Progress func(epoch int, loss float64)
}

func (c HardenConfig) epochs() int {
	if c.Epochs == 0 {
		return 12
	}
	return c.Epochs
}

// Harden returns a fine-tuned copy of m trained on attacked + clean screens.
// The original model is not modified.
func Harden(m *yolite.Model, attacked []*auigen.Attacked, clean []*dataset.Sample, cfg HardenConfig) (*yolite.Model, error) {
	hardened, err := m.Clone()
	if err != nil {
		return nil, err
	}
	pool := make([]*dataset.Sample, 0, len(attacked)+len(clean))
	pool = append(pool, Samples(attacked)...)
	pool = append(pool, clean...)
	yolite.TrainInto(hardened, pool, yolite.TrainConfig{
		Epochs: cfg.epochs(), LR: hardenLR, Seed: cfg.Seed, Progress: cfg.Progress,
	})
	return hardened, nil
}
