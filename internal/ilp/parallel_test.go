package ilp_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"bagconsistency/internal/gen"
	"bagconsistency/internal/ilp"
)

// slowProgram builds a program whose search runs effectively forever:
// margins of a random 3x3x3 table with multiplicities up to 2^16, the
// same construction the pkg-level cancellation test uses.
func slowProgram(t *testing.T) *ilp.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	inst, err := gen.RandomThreeDCT(rng, 3, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := inst.ToCollection()
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := coll.BuildProgram()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestParallelCancellation cancels a hopeless parallel search mid-flight
// and asserts every worker exits promptly with ctx's error and without
// leaking goroutines — the ilp-layer mirror of the PR 1 pkg-level test.
func TestParallelCancellation(t *testing.T) {
	p := slowProgram(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ilp.SolveContext(ctx, p, ilp.Options{
		Workers:  4,
		MaxNodes: 2_000_000_000,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt unwind", elapsed)
	}

	// All four workers must be gone; allow the runtime a moment to reap.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelDeadline drives cancellation through a context deadline
// instead of an explicit cancel.
func TestParallelDeadline(t *testing.T) {
	p := slowProgram(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ilp.SolveContext(ctx, p, ilp.Options{
		Workers:  4,
		MaxNodes: 2_000_000_000,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline unwind took %v", elapsed)
	}
}

// TestParallelNodeLimit asserts MaxNodes is a global budget across
// workers: the search fails with ErrNodeLimit and the recorded node count
// overshoots by at most the worker count (each worker can be counting a
// node when the budget trips).
func TestParallelNodeLimit(t *testing.T) {
	// Infeasible (the two rows demand different totals from the same two
	// columns) with a ~50x50 value tree: no worker can ever publish a
	// solution, so the tiny budget must trip at every worker count.
	p := &ilp.Problem{
		M:    2,
		Cols: [][]int{{0, 1}, {0, 1}},
		B:    []int64{50, 49},
	}
	for _, w := range []int{2, 4, 8} {
		sol, err := ilp.Solve(p, ilp.Options{Workers: w, MaxNodes: 10})
		if !errors.Is(err, ilp.ErrNodeLimit) {
			t.Fatalf("workers=%d: want ErrNodeLimit, got %v (sol=%+v)", w, err, sol)
		}
	}
}

// TestParallelStealStats asserts the work-stealing counters move. Worker
// 0 starts at the root and, with the frontier empty, donates the root's
// untried values before its first child. The program is infeasible, so
// the solve cannot end before some worker takes that job: at least one
// steal at every worker count.
func TestParallelStealStats(t *testing.T) {
	p := splitProgram(2, 8)
	for _, w := range []int{2, 4, 8} {
		sol, err := ilp.Solve(p, ilp.Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Feasible {
			t.Fatal("split program judged feasible")
		}
		if sol.Steals < 1 {
			t.Fatalf("workers=%d: expected at least the root steal, got %d", w, sol.Steals)
		}
	}
	// Sequential solves must not report parallel stats.
	seq, err := ilp.Solve(p, ilp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Steals != 0 || seq.Idles != 0 {
		t.Fatalf("sequential solve reported steals=%d idles=%d", seq.Steals, seq.Idles)
	}
}

// TestFrontierStealPublishRace hammers the frontier from many concurrent
// solves (and workers within each) so the race detector can observe the
// steal/donate/publish paths under contention. The iteration count scales
// up when the race detector is on — this is the solver-equivalence smoke
// CI runs with -race.
func TestFrontierStealPublishRace(t *testing.T) {
	iters := 30
	if raceEnabled {
		iters = 60
	}
	rng := rand.New(rand.NewSource(29))
	problems := make([]*ilp.Problem, iters)
	oracles := make([]bool, iters)
	for i := range problems {
		problems[i] = randomProblem(rng)
		sol, err := ilp.Solve(problems[i], ilp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		oracles[i] = sol.Feasible
	}
	var wg sync.WaitGroup
	for i := range problems {
		for _, w := range []int{2, 8} {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				sol, err := ilp.Solve(problems[i], ilp.Options{Workers: w})
				if err != nil {
					t.Errorf("problem %d workers=%d: %v", i, w, err)
					return
				}
				if sol.Feasible != oracles[i] {
					t.Errorf("problem %d workers=%d: verdict %v, oracle %v", i, w, sol.Feasible, oracles[i])
				}
				if sol.Feasible && !problems[i].Verify(sol.X) {
					t.Errorf("problem %d workers=%d: witness does not verify", i, w)
				}
			}(i, w)
		}
	}
	wg.Wait()
}
