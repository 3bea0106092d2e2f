package deploy

import (
	"bytes"
	"fmt"
	"sync"

	"github.com/carbonedge/carbonedge/internal/models"
	"github.com/carbonedge/carbonedge/internal/nn"
)

// ZooSource adapts a trained model zoo as a ModelSource: checkpoints are
// the real serialized network weights, produced lazily and cached (the same
// bytes ship to every edge, as in the paper where the cloud holds one copy
// of each model).
type ZooSource struct {
	zoo *models.TrainedZoo

	mu    sync.Mutex
	cache map[int][]byte
}

var _ ModelSource = (*ZooSource)(nil)

// NewZooSource wraps a trained zoo.
func NewZooSource(zoo *models.TrainedZoo) (*ZooSource, error) {
	if zoo == nil {
		return nil, fmt.Errorf("deploy: nil zoo")
	}
	return &ZooSource{zoo: zoo, cache: make(map[int][]byte)}, nil
}

// NumModels implements ModelSource.
func (z *ZooSource) NumModels() int { return z.zoo.NumModels() }

// Meta implements ModelSource.
func (z *ZooSource) Meta(n int) ModelMeta {
	info := z.zoo.Info(n)
	return ModelMeta{PhiKWh: info.PhiKWh, SizeBytes: info.SizeBytes}
}

// Checkpoint implements ModelSource.
func (z *ZooSource) Checkpoint(n int) ([]byte, error) {
	z.mu.Lock()
	defer z.mu.Unlock()
	if b, ok := z.cache[n]; ok {
		return b, nil
	}
	var buf bytes.Buffer
	if err := nn.WriteWeights(&buf, z.zoo.Network(n)); err != nil {
		return nil, fmt.Errorf("deploy: serialize model %d: %w", n, err)
	}
	z.cache[n] = buf.Bytes()
	return z.cache[n], nil
}
