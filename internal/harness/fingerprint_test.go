package harness

import (
	"sync"
	"testing"

	"phasetune/internal/platform"
)

func TestScenarioFingerprintStableAndDiscriminating(t *testing.T) {
	sc, _ := platform.ScenarioByKey("b")
	opts := SimOptions{Tiles: 6}

	fp1 := ScenarioFingerprint(sc, opts)
	fp2 := ScenarioFingerprint(sc, opts)
	if fp1 != fp2 {
		t.Fatalf("fingerprint not stable: %s vs %s", fp1, fp2)
	}
	if len(fp1) != 16 {
		t.Fatalf("fingerprint length = %d, want 16", len(fp1))
	}

	// Anything the deterministic makespan depends on must change it.
	variants := []SimOptions{
		{Tiles: 8},
		{Tiles: 6, Exact: true},
		{Tiles: 6, GenNodes: 3},
	}
	for _, v := range variants {
		if got := ScenarioFingerprint(sc, v); got == fp1 {
			t.Errorf("fingerprint unchanged for opts %+v", v)
		}
	}
	other, _ := platform.ScenarioByKey("c")
	if got := ScenarioFingerprint(other, opts); got == fp1 {
		t.Errorf("fingerprint unchanged across scenarios")
	}
}

// TestEvaluatorConcurrent exercises the reentrant simulate entry point
// from many goroutines under -race: identical results, no shared state.
func TestEvaluatorConcurrent(t *testing.T) {
	sc, _ := platform.ScenarioByKey("b")
	ev := NewEvaluator(sc, SimOptions{Tiles: 4})

	want, err := ev.Evaluate(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]float64, 8)
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = ev.Evaluate(3)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if got[i] != want {
			t.Fatalf("goroutine %d: makespan %v, want %v (not deterministic)", i, got[i], want)
		}
	}
}

// A cold Batch evaluated from several goroutines at once compiles one
// template and gives every action the makespan a one-shot Evaluate
// gives.
func TestBatchConcurrentMatchesEvaluate(t *testing.T) {
	sc, _ := platform.ScenarioByKey("b")
	ev := NewEvaluator(sc, SimOptions{Tiles: 6})
	actions := ev.Actions()
	b := ev.Batch()
	got := make([]float64, len(actions))
	errs := make([]error, len(actions))
	var wg sync.WaitGroup
	for i, a := range actions {
		wg.Add(1)
		go func(i, a int) {
			defer wg.Done()
			got[i], errs[i] = b.Evaluate(a)
		}(i, a)
	}
	wg.Wait()
	for i, a := range actions {
		if errs[i] != nil {
			t.Fatalf("action %d: %v", a, errs[i])
		}
		want, err := ev.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("action %d: batch makespan %v, evaluator %v", a, got[i], want)
		}
	}
	if _, err := b.Evaluate(0); err == nil {
		t.Fatal("batch accepted action 0")
	}
}
