package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/anon"
	"repro/internal/census"
	"repro/internal/query"
	"repro/internal/release"
)

// TestConcurrentStoreAndCache stresses the full serving stack under the
// race detector: batch executions against several registered releases
// share one engine (and one cache) while Store.Submit keeps the build
// pool busy creating more releases. Every result is checked against the
// expected value precomputed for its release, so a cache entry leaking
// across release IDs — same query signature, different release — fails
// the test with a value mismatch, not just a race report.
func TestConcurrentStoreAndCache(t *testing.T) {
	store := release.NewStore(2)
	defer store.Close()
	e := New(Options{Workers: 4, CacheCapacity: 1024})
	defer e.Close()

	// Three synthetic ready releases with identical schemas but different
	// content: the adversarial setup for cross-release cache leaks.
	const nRel = 3
	ids := make([]string, nRel)
	snaps := make([]*release.Snapshot, nRel)
	var schema = census.Schema().Project(3)
	for i := range ids {
		snap, _ := syntheticSnapshot(800, int64(100+i))
		meta, err := store.Register(snap, release.Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams()})
		if err != nil {
			t.Fatal(err)
		}
		ids[i], snaps[i] = meta.ID, snap
	}

	// One shared query pool, used verbatim against every release, and the
	// per-release expected values computed serially up front.
	qs := genQueries(t, schema, 64, 42)
	want := make([][]float64, nRel)
	for r := range want {
		want[r] = make([]float64, len(qs))
		for i, q := range qs {
			v, err := snaps[r].Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			want[r][i] = v
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)

	// Background build churn: keep Store.Submit and the build workers
	// active while the engine serves. Queue-full rejections are part of
	// the exercise and ignored.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		tab := census.Generate(census.Options{N: 400, Seed: 7}).Project(2)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = store.Submit(context.Background(), tab, release.Spec{Method: anon.MethodBUREL, Params: anon.NewBURELParams(anon.BURELSeed(int64(i)))})
			time.Sleep(time.Millisecond)
		}
	}()

	// Query workers: random batches of the shared pool against random
	// releases, results verified against the precomputed truth.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for iter := 0; iter < 50; iter++ {
				r := rng.Intn(nRel)
				start := rng.Intn(len(qs))
				size := 1 + rng.Intn(32)
				batch := make([]query.Query, 0, size)
				idx := make([]int, 0, size)
				for k := 0; k < size; k++ {
					i := (start + k) % len(qs)
					batch = append(batch, qs[i])
					idx = append(idx, i)
				}
				snap, err := store.Snapshot(ids[r])
				if err != nil {
					errCh <- err
					return
				}
				res, err := e.Execute(context.Background(), ids[r], snap, batch)
				if err != nil {
					errCh <- err
					return
				}
				for k := range res {
					if res[k].Estimate != want[r][idx[k]] {
						errCh <- fmt.Errorf("worker %d iter %d: release %s query %d: got %v want %v (cross-release cache leak?)",
							w, iter, ids[r], idx[k], res[k].Estimate, want[r][idx[k]])
						return
					}
				}
			}
		}(w)
	}

	wg.Wait()
	close(stop)
	churn.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
