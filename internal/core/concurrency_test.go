package core

import (
	"fmt"
	"sync"
	"testing"

	"p3pdb/internal/workload"
)

// TestConcurrentMatching exercises the Site under concurrent matching on
// every engine while policies are being added and removed: the run must
// be race-free (go test -race) and every decision must be one of the
// legal behaviors.
func TestConcurrentMatching(t *testing.T) {
	// In -short mode the test still runs — CI's race build depends on it —
	// but with fewer iterations per goroutine.
	iters := 30
	if testing.Short() {
		iters = 5
	}
	d := workload.Generate(42)
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range d.Policies[:8] {
		if err := s.InstallPolicy(pol); err != nil {
			t.Fatal(err)
		}
	}
	stable := make([]string, 8)
	for i, pol := range d.Policies[:8] {
		stable[i] = pol.Name
	}
	pref, _ := workload.PreferenceByLevel("High")

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Matchers on all engines.
	for _, engine := range Engines {
		engine := engine
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := stable[i%len(stable)]
				dec, err := s.MatchPolicy(pref.XML, name, engine)
				if err != nil {
					errs <- fmt.Errorf("%v: %w", engine, err)
					return
				}
				switch dec.Behavior {
				case "request", "limited", "block":
				default:
					errs <- fmt.Errorf("%v: bad behavior %q", engine, dec.Behavior)
					return
				}
			}
		}()
	}

	// Churn: install and remove extra policies throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3+1; i++ {
			pol := d.Policies[10+(i%10)].Clone()
			pol.Name = fmt.Sprintf("churn-%d", i)
			if err := s.InstallPolicy(pol); err != nil {
				errs <- fmt.Errorf("install: %w", err)
				return
			}
			if _, err := s.MatchPolicy(pref.XML, pol.Name, EngineSQL); err != nil {
				errs <- fmt.Errorf("match churn: %w", err)
				return
			}
			if err := s.RemovePolicy(pol.Name); err != nil {
				errs <- fmt.Errorf("remove: %w", err)
				return
			}
		}
	}()

	// Analytics readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2*iters; i++ {
			_ = s.Analytics()
			_, _ = s.PolicyXML(stable[0])
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
