package durable

// The one apply loop's contract: writers, recovery and followers all
// land their mutations through core.ApplyBatch, and a mutation that
// cannot apply is reported with its own error while the mutations
// around it keep the outcome they would have had one at a time.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"p3pdb/internal/core"
)

// TestGroupBadMutationFailsAlone drains one group holding a mutation
// whose edit fails between two good ones: the bad writer gets exactly
// the error a lone write would, the good ones are acknowledged, and the
// log replays to the live site.
func TestGroupBadMutationFailsAlone(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			store := newStore(t, Options{Fsync: policy, FsyncInterval: time.Hour, CheckpointEvery: -1})
			site := newSite(t)
			tn := openTenant(t, store, "t")
			op := func(rec *Record) *mutOp {
				m, err := MutationForRecord(rec)
				if err != nil {
					t.Fatal(err)
				}
				return &mutOp{site: site, rec: rec, mut: m, done: make(chan struct{})}
			}
			a := op(&Record{Op: OpInstall, Doc: polDoc("a")})
			ghost := op(&Record{Op: OpRemove, Name: "ghost"})
			b := op(&Record{Op: OpInstall, Doc: polDoc("b")})

			fsyncs := obsFsyncs.Value()
			tn.mu.Lock()
			tn.qmu.Lock()
			tn.queue = []*mutOp{a, ghost, b}
			tn.qmu.Unlock()
			if created := tn.processQueueLocked(); created != nil && tn.batch == created {
				if err := tn.commitLocked(); err != nil {
					t.Error(err)
				}
			}
			tn.mu.Unlock()
			for _, o := range []*mutOp{a, ghost, b} {
				<-o.done
			}
			t.Logf("fsyncs for the group: %d", obsFsyncs.Value()-fsyncs)

			var ae *AppendError
			if ghost.err == nil || ghost.err.Error() != `core: policy "ghost" not installed` ||
				errors.As(ghost.err, &ae) || strings.Contains(ghost.err.Error(), "batch mutation") {
				t.Fatalf("bad mutation resolved with %v", ghost.err)
			}
			if a.err != nil || b.err != nil {
				t.Fatalf("good mutations failed: a=%v b=%v", a.err, b.err)
			}
			if names := site.PolicyNames(); !reflect.DeepEqual(names, []string{"a", "b"}) {
				t.Fatalf("site holds %v, want [a b]", names)
			}

			if err := tn.Close(); err != nil {
				t.Fatal(err)
			}
			fresh := newSite(t)
			if err := openTenant(t, store, "t").ReplayInto(fresh); err != nil {
				t.Fatal(err)
			}
			mustEqualState(t, site, fresh)
		})
	}
}

// TestApplyRecordsStopsAtBadRecord feeds a follower chunk whose middle
// record cannot apply — once because its edit fails, once because it
// does not translate — and expects the record before it applied, the
// record after it not, and the bad record's own error.
func TestApplyRecordsStopsAtBadRecord(t *testing.T) {
	for _, bad := range []*Record{
		{LSN: 2, Op: OpRemove, Name: "ghost"},
		{LSN: 2, Op: OpInstall, Doc: "<not-a-policy/>"},
	} {
		t.Run(string(bad.Op), func(t *testing.T) {
			want := ApplyRecord(newSite(t), bad)
			if want == nil {
				t.Fatal("bad record applied on a fresh site")
			}
			site := newSite(t)
			n, err := ApplyRecords(site, []*Record{
				{LSN: 1, Op: OpInstall, Doc: polDoc("a")},
				bad,
				{LSN: 3, Op: OpInstall, Doc: polDoc("b")},
			})
			if n != 1 || err == nil || err.Error() != want.Error() {
				t.Fatalf("ApplyRecords = (%d, %v), want (1, %v)", n, err, want)
			}
			if names := site.PolicyNames(); !reflect.DeepEqual(names, []string{"a"}) {
				t.Fatalf("site holds %v, want [a]", names)
			}
		})
	}
}

// TestReplayStopsAtUntranslatableRecord recovers a hand-written log
// whose second record does not parse: recovery names that record and
// leaves the record before it applied.
func TestReplayStopsAtUntranslatableRecord(t *testing.T) {
	store := newStore(t, Options{Fsync: FsyncNever, CheckpointEvery: -1})
	dir := filepath.Join(store.Dir(), "t")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var log []byte
	for _, rec := range []*Record{
		{LSN: 1, Op: OpInstall, Doc: polDoc("a")},
		{LSN: 2, Op: OpInstall, Doc: "<not-a-policy/>"},
		{LSN: 3, Op: OpInstall, Doc: polDoc("b")},
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
	site := newSite(t)
	err := openTenant(t, store, "t").ReplayInto(site)
	if err == nil || !strings.Contains(err.Error(), "durable: replaying record 2 (install):") {
		t.Fatalf("replay error %v does not name record 2", err)
	}
	if names := site.PolicyNames(); !reflect.DeepEqual(names, []string{"a"}) {
		t.Fatalf("site holds %v, want [a]", names)
	}
}

// TestGroupOtherSiteFails: one journal logs one site, so a mutation
// queued for another site fails at the guard, is neither applied nor
// logged, and the group's own mutation proceeds.
func TestGroupOtherSiteFails(t *testing.T) {
	store := newStore(t, Options{Fsync: FsyncNever, CheckpointEvery: -1})
	site, other := newSite(t), newSite(t)
	tn := openTenant(t, store, "t")
	op := func(s *core.Site, name string) *mutOp {
		m, err := MutationForRecord(&Record{Op: OpInstall, Doc: polDoc(name)})
		if err != nil {
			t.Fatal(err)
		}
		return &mutOp{site: s, rec: &Record{Op: OpInstall, Doc: polDoc(name)}, mut: m, done: make(chan struct{})}
	}
	a, stray := op(site, "a"), op(other, "b")
	tn.mu.Lock()
	tn.queue = []*mutOp{a, stray}
	tn.processQueueLocked()
	tn.mu.Unlock()
	<-a.done
	<-stray.done
	if a.err != nil || stray.err == nil {
		t.Fatalf("a=%v stray=%v", a.err, stray.err)
	}
	if names := site.PolicyNames(); !reflect.DeepEqual(names, []string{"a"}) {
		t.Fatalf("site holds %v, want [a]", names)
	}
	if names := other.PolicyNames(); len(names) != 0 {
		t.Fatalf("other site holds %v", names)
	}
	if st := tn.Status(); st.LSN != 1 {
		t.Fatalf("journal logged %d records, want 1", st.LSN)
	}
}
