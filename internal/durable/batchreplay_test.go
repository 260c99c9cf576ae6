package durable

// Batched-replay equivalence: recovery now lands the snapshot plus the
// whole log tail through one core.ApplyBatch. These tests pin the
// refactor's contract — the batched path produces a site
// indistinguishable from the pre-batching serial replay (same exports,
// same compact-policy headers, same decisions on every engine), and
// when the batch cannot apply, the prefix rule (applyPrefix) reproduces
// the exact per-record error and applied prefix. The kill matrix
// (killmatrix_test.go) runs on the batched path too, so torn-vs-corrupt
// classification parity is covered byte-by-byte there.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p3pdb/internal/core"
)

// replaySerially reproduces the pre-batching recovery algorithm using a
// tenant's recovered-but-unconsumed state: snapshot restore, then one
// ApplyRecord per live tail record.
func replaySerially(t *testing.T, tn *Tenant, site *core.Site) {
	t.Helper()
	snap, records := tn.pending, tn.pendingRecords
	if snap != nil {
		exp := core.StateExport{Order: snap.Order, PolicyXML: snap.Policies, ReferenceXML: snap.Reference}
		if err := site.RestoreState(exp); err != nil {
			t.Fatal(err)
		}
	}
	for i := range records {
		rec := &records[i]
		if rec.LSN <= tn.snapLSN {
			continue
		}
		if err := ApplyRecord(site, rec); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchedReplayMatchesSerial recovers the same journal twice — once
// through the batched ReplayInto, once through the serial per-record
// algorithm — and asserts the two sites are byte-identical: exports,
// CP headers, and decisions across all engines.
func TestBatchedReplayMatchesSerial(t *testing.T) {
	store := newStore(t, Options{Fsync: FsyncNever, CheckpointEvery: -1})
	site := newSite(t)
	tn := openTenant(t, store, "t")
	// Snapshot mid-history so recovery exercises checkpoint + tail.
	for _, s := range killHistory[:2] {
		if err := applyStep(tn, site, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.Checkpoint(site); err != nil {
		t.Fatal(err)
	}
	for _, s := range killHistory[2:] {
		if err := applyStep(tn, site, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := tn.Close(); err != nil {
		t.Fatal(err)
	}

	tnBatch := openTenant(t, store, "t")
	siteBatch := newSite(t)
	if err := tnBatch.ReplayInto(siteBatch); err != nil {
		t.Fatal(err)
	}

	tnSerial := openTenant(t, store, "t")
	siteSerial := newSite(t)
	replaySerially(t, tnSerial, siteSerial)

	mustEqualState(t, siteSerial, siteBatch)
	mustEqualState(t, site, siteBatch)
	for _, name := range siteSerial.PolicyNames() {
		cpSerial, err := siteSerial.CompactPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		cpBatch, err := siteBatch.CompactPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if cpSerial != cpBatch {
			t.Fatalf("policy %q: CP header diverged:\nserial  %s\nbatched %s", name, cpSerial, cpBatch)
		}
		for _, engine := range core.Engines {
			decSerial, err := siteSerial.MatchPolicy(permissivePref, name, engine)
			if err != nil {
				t.Fatalf("%v match %s (serial): %v", engine, name, err)
			}
			decBatch, err := siteBatch.MatchPolicy(permissivePref, name, engine)
			if err != nil {
				t.Fatalf("%v match %s (batched): %v", engine, name, err)
			}
			if decSerial.Behavior != decBatch.Behavior {
				t.Fatalf("%v match %s: serial %q vs batched %q", engine, name, decSerial.Behavior, decBatch.Behavior)
			}
		}
	}
}

// TestBatchedReplayFallbackPreservesErrors hand-writes a log whose
// second record cannot apply (removing a policy that was never
// installed) and asserts the batched recovery reports the pre-batching
// per-record error — with its LSN and op — and leaves exactly the
// applied prefix on the site.
func TestBatchedReplayFallbackPreservesErrors(t *testing.T) {
	store := newStore(t, Options{Fsync: FsyncNever, CheckpointEvery: -1})
	dir := filepath.Join(store.Dir(), "t")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, rec := range []*Record{
		{LSN: 1, Op: OpInstall, Doc: polDoc("a")},
		{LSN: 2, Op: OpRemove, Name: "ghost"},
	} {
		frame, err := encodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, frame...)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	tn, err := store.OpenTenant("t")
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	site := newSite(t)
	replayErr := tn.ReplayInto(site)
	if replayErr == nil {
		t.Fatal("replay of an unappliable record succeeded")
	}
	if !strings.Contains(replayErr.Error(), "durable: replaying record 2 (remove):") {
		t.Fatalf("fallback lost the per-record error format: %v", replayErr)
	}
	if names := site.PolicyNames(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("fallback did not leave the applied prefix: %v", names)
	}
}
