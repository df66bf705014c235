package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/a11y"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// tenantProbe captures the tenant identity each analysis context carries
// into the detector — the seam the shared serving layer's admission reads.
type tenantProbe struct {
	mu   sync.Mutex
	seen []serve.TenantInfo
}

func (p *tenantProbe) Name() string { return "tenant-probe" }

func (p *tenantProbe) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	p.mu.Lock()
	p.seen = append(p.seen, serve.TenantFrom(ctx))
	p.mu.Unlock()
	return make([][]metrics.Detection, x.Shape[0]), nil
}

// TestConfigTenantTagsAnalysisContext: Config.Tenant/TenantPriority must
// ride every analysis context into the detector, and an empty Tenant must
// leave the context untagged (the serving layer's default-tenant path).
func TestConfigTenantTagsAnalysisContext(t *testing.T) {
	clock, mgr, _ := newEnv(11)
	probe := &tenantProbe{}
	s := Start(clock, mgr, probe, Config{
		Tenant:         "audit-farm",
		TenantPriority: serve.PriorityBatch,
	})
	mgr.Emit(a11y.TypeWindowsChanged, "app")
	clock.RunFor(time.Second)
	s.Stop()
	probe.mu.Lock()
	seen := append([]serve.TenantInfo(nil), probe.seen...)
	probe.mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("no analysis reached the detector")
	}
	for _, info := range seen {
		if info.ID != "audit-farm" || info.Priority != serve.PriorityBatch {
			t.Fatalf("analysis ctx carried %+v, want audit-farm at batch priority", info)
		}
	}

	clock2, mgr2, _ := newEnv(12)
	probe2 := &tenantProbe{}
	s2 := Start(clock2, mgr2, probe2, Config{})
	mgr2.Emit(a11y.TypeWindowsChanged, "app")
	clock2.RunFor(time.Second)
	s2.Stop()
	probe2.mu.Lock()
	defer probe2.mu.Unlock()
	if len(probe2.seen) == 0 {
		t.Fatal("no analysis reached the detector")
	}
	for _, info := range probe2.seen {
		if info.ID != serve.DefaultTenant || info.Priority != serve.PriorityLive {
			t.Fatalf("untenanted ctx resolved to %+v, want default/live", info)
		}
	}
}
