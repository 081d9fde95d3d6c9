package binder

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentTransactions hammers one service from many app processes
// in parallel. Run with -race; the assertions check only aggregate counts
// because interleaving is unordered.
func TestConcurrentTransactions(t *testing.T) {
	d := NewDriver()
	sys := mustOpen(t, d, 1, 1000, "system_server")

	var mu sync.Mutex
	calls := 0
	svc := TransactorFunc(func(call *Call) error {
		s, err := call.Data.StringAt(0)
		if err != nil {
			return err
		}
		mu.Lock()
		calls++
		mu.Unlock()
		call.Reply.WriteString(s)
		return nil
	})
	if _, err := AddService(sys, "echo", "IEcho", svc); err != nil {
		t.Fatal(err)
	}

	const procs, perProc = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, procs)
	for i := 0; i < procs; i++ {
		p := mustOpen(t, d, 100+i, 10000+i, fmt.Sprintf("app%d", i))
		wg.Add(1)
		go func(p *Proc, id int) {
			defer wg.Done()
			h, err := GetService(p, "echo")
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < perProc; j++ {
				data := NewParcel()
				data.WriteString(fmt.Sprintf("%d/%d", id, j))
				reply, err := p.Transact(h, 1, data)
				if err != nil {
					errs <- err
					return
				}
				if got, err := reply.StringAt(0); err != nil || got != fmt.Sprintf("%d/%d", id, j) {
					errs <- fmt.Errorf("echo mismatch: %q, %v", got, err)
					return
				}
			}
			errs <- nil
		}(p, i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if calls != procs*perProc {
		t.Errorf("service saw %d calls, want %d", calls, procs*perProc)
	}
}

// TestConcurrentPublishAndExit races node publication against process
// death, checking the driver never hands out dangling nodes.
func TestConcurrentPublishAndExit(t *testing.T) {
	d := NewDriver()
	observer := mustOpen(t, d, 1, 1000, "observer")
	const workers = 6
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		p := mustOpen(t, d, 10+i, 10000+i, fmt.Sprintf("w%d", i))
		wg.Add(1)
		go func(p *Proc, i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				node, err := p.Publish("ITemp", TransactorFunc(func(c *Call) error { return nil }))
				if err != nil {
					return // process may have exited below
				}
				if _, err := observer.Ref(node); err != nil {
					continue
				}
			}
			p.Exit()
		}(p, i)
	}
	wg.Wait()
	// Every handle in the observer's table must resolve; transactions on
	// dead nodes must fail cleanly, not crash.
	for _, he := range observer.Handles() {
		node, err := observer.Node(he.Handle)
		if err != nil {
			t.Fatalf("handle %d unresolvable: %v", he.Handle, err)
		}
		if node == nil {
			t.Fatalf("handle %d resolves to nil", he.Handle)
		}
	}
}
