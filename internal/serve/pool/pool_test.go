package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoRunsTasks checks basic submission and result plumbing.
func TestDoRunsTasks(t *testing.T) {
	p := New(2, 4)
	defer p.Shutdown(context.Background())
	v, err := p.Do(context.Background(), func(ctx context.Context) (any, error) {
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("Do = (%v, %v), want (7, nil)", v, err)
	}
}

// TestQueueFull verifies overload turns into immediate ErrQueueFull, not
// blocking.
func TestQueueFull(t *testing.T) {
	p := New(1, 1)
	defer p.Shutdown(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started // worker busy
	// Fill the single queue slot.
	go p.Do(context.Background(), func(ctx context.Context) (any, error) { return nil, nil })
	// Wait for the queue slot to be occupied.
	for p.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Do(context.Background(), func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overloaded Do = %v, want ErrQueueFull", err)
	}
	close(block)
}

// TestCtxUnblocksWaiter: a caller whose context expires while its task is
// queued gets the context error, and the skipped task never runs.
func TestCtxUnblocksWaiter(t *testing.T) {
	p := New(1, 2)
	defer p.Shutdown(context.Background())
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func(ctx context.Context) (any, error) {
		close(started)
		<-block
		return nil, nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	_, err := p.Do(ctx, func(ctx context.Context) (any, error) {
		ran.Store(true)
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Do past deadline = %v, want DeadlineExceeded", err)
	}
	close(block)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Fatal("task with expired context was executed")
	}
}

// TestShutdownDrains verifies graceful drain: queued work completes, then
// new submissions are refused.
func TestShutdownDrains(t *testing.T) {
	p := New(2, 8)
	var done int32
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(context.Background(), func(ctx context.Context) (any, error) {
				time.Sleep(5 * time.Millisecond)
				atomic.AddInt32(&done, 1)
				return nil, nil
			})
		}()
	}
	time.Sleep(2 * time.Millisecond) // let (most) submissions land
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := p.Do(context.Background(), func(ctx context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after shutdown = %v, want ErrClosed", err)
	}
	if atomic.LoadInt32(&done) == 0 {
		t.Fatal("no queued task survived the drain")
	}
}

// holdWorkers occupies k workers with tasks that block until the returned
// function is called.
func holdWorkers(t *testing.T, p *Pool, k int) (unblock func()) {
	t.Helper()
	block := make(chan struct{})
	for range k {
		go p.Do(context.Background(), func(ctx context.Context) (any, error) {
			<-block
			return nil, nil
		})
	}
	for p.Running() < k {
		time.Sleep(time.Millisecond)
	}
	return func() { close(block) }
}

// TestTryLend: a slot is lent only while running tasks plus lent slots
// stay below the worker count and the admission queue is empty, and
// releasing (even twice) restores exactly one slot.
func TestTryLend(t *testing.T) {
	p := New(2, 4)
	defer p.Shutdown(context.Background())

	rel, ok := p.TryLend()
	if !ok {
		t.Fatal("idle pool refused to lend")
	}
	if p.Lends() != 1 {
		t.Fatalf("Lends = %d after one lend, want 1", p.Lends())
	}
	unblock := holdWorkers(t, p, 1)
	if _, ok := p.TryLend(); ok {
		t.Fatal("lent a slot with one task running and one slot lent on a 2-worker pool")
	}
	rel()
	rel() // idempotent: must not free a second slot
	rel2, ok := p.TryLend()
	if !ok {
		t.Fatal("release did not restore capacity")
	}
	if _, ok := p.TryLend(); ok {
		t.Fatal("a repeated release freed a second slot")
	}
	rel2()

	// Both workers busy: nothing to lend.
	unblock2 := holdWorkers(t, p, 2)
	if _, ok := p.TryLend(); ok {
		t.Fatal("lent a slot while every worker was busy")
	}
	unblock()
	unblock2()
}

// TestTryLendRefusesWithQueue: a queued request outranks every borrower,
// even while a worker would be free for it.
func TestTryLendRefusesWithQueue(t *testing.T) {
	p := New(1, 4)
	defer p.Shutdown(context.Background())
	unblock := holdWorkers(t, p, 1)
	go p.Do(context.Background(), func(ctx context.Context) (any, error) { return nil, nil })
	for p.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}
	if _, ok := p.TryLend(); ok {
		t.Fatal("lent a slot with a request waiting in the queue")
	}
	unblock()
}

// TestTryLendConcurrent: concurrent borrowers never hold more slots than
// the pool has workers.
func TestTryLendConcurrent(t *testing.T) {
	const workers = 3
	p := New(workers, 4)
	defer p.Shutdown(context.Background())
	var held, peak atomic.Int32
	var wg sync.WaitGroup
	for range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				rel, ok := p.TryLend()
				if !ok {
					continue
				}
				n := held.Add(1)
				for {
					m := peak.Load()
					if n <= m || peak.CompareAndSwap(m, n) {
						break
					}
				}
				held.Add(-1)
				rel()
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrent lends = %d, want ≤ %d", got, workers)
	}
	for i := range workers { // every slot came back
		if _, ok := p.TryLend(); !ok {
			t.Fatalf("lend %d of %d refused after every borrower released", i+1, workers)
		}
	}
}
