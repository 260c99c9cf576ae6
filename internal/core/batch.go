package core

import (
	"fmt"

	"p3pdb/internal/p3p"
	"p3pdb/internal/prefindex"
	"p3pdb/internal/reffile"
)

// Mutation is one logical site edit — install, remove, reference-file
// swap, bulk replace, or state restore — in a form that can be batched.
// ApplyBatch applies any number of them onto a single draft and
// publishes one successor snapshot, so replaying N logged records costs
// one backend rebuild instead of N. The existing single-write methods
// are one-element batches of these same values.
type Mutation struct {
	edit func(*stateDraft) error
	// purgeNames lists policies whose id-bound conversion-cache entries
	// must drop after a successful publish (removes: a reinstall under
	// the same name must not serve stale translations).
	purgeNames []string
	// purgeBound drops every id-bound entry after a successful publish
	// (replace/restore reassign every policy id).
	purgeBound bool
}

// InstallPolicyMutation installs one parsed policy.
func InstallPolicyMutation(pol *p3p.Policy) Mutation {
	return Mutation{edit: func(d *stateDraft) error { return d.addPolicy(pol) }}
}

// InstallPoliciesMutation installs several parsed policies as one edit
// (the shape of one logged install record, whose document may hold a
// POLICIES list).
func InstallPoliciesMutation(pols []*p3p.Policy) Mutation {
	return Mutation{edit: func(d *stateDraft) error {
		for _, pol := range pols {
			if err := d.addPolicy(pol); err != nil {
				return err
			}
		}
		return nil
	}}
}

// RemovePolicyMutation removes one named policy.
func RemovePolicyMutation(name string) Mutation {
	return Mutation{
		edit:       func(d *stateDraft) error { return d.removePolicy(name) },
		purgeNames: []string{name},
	}
}

// InstallReferenceFileMutation installs the site's reference file.
func InstallReferenceFileMutation(rf *reffile.RefFile) Mutation {
	return Mutation{edit: func(d *stateDraft) error { return d.setRefFile(rf) }}
}

// ReplacePoliciesMutation replaces the entire policy set and reference
// file (nil rf leaves the site without one). Reference-file validation
// runs against the new set, as in ReplacePolicies.
func ReplacePoliciesMutation(pols []*p3p.Policy, rf *reffile.RefFile) Mutation {
	return Mutation{
		edit: func(d *stateDraft) error {
			d.clearPolicies()
			for _, pol := range pols {
				if err := d.addPolicy(pol); err != nil {
					return err
				}
			}
			if rf != nil {
				return d.setRefFile(rf)
			}
			return nil
		},
		purgeBound: true,
	}
}

// RestoreStateMutation rebuilds the whole state from an export, without
// re-validating the reference file against the policy set (RemovePolicy
// legitimately leaves POLICY-REFs dangling; see RestoreState). Parse
// failures surface here, before anything joins a batch.
func RestoreStateMutation(exp StateExport) (Mutation, error) {
	var pols []*p3p.Policy
	for _, name := range exp.Order {
		ps, err := p3p.ParsePolicies(exp.PolicyXML[name])
		if err != nil {
			return Mutation{}, fmt.Errorf("core: restore policy %s: %w", name, err)
		}
		pols = append(pols, ps...)
	}
	var rf *reffile.RefFile
	if exp.ReferenceXML != "" {
		var err error
		rf, err = reffile.Parse(exp.ReferenceXML)
		if err != nil {
			return Mutation{}, fmt.Errorf("core: restore reference file: %w", err)
		}
	}
	// Registered preferences restore explicitly: the durability layer's
	// rollback path rebuilds a site from an export, and silently dropping
	// registrations there would un-register preferences on an unrelated
	// failed policy write.
	prefs := prefindex.NewSet()
	for _, pe := range exp.Prefs {
		p, err := prefindex.Compile(pe.Name, pe.XML, pe.Engines)
		if err != nil {
			return Mutation{}, fmt.Errorf("core: restore preference %s: %w", pe.Name, err)
		}
		prefs = prefs.With(p)
	}
	return Mutation{
		edit: func(d *stateDraft) error {
			d.clearPolicies()
			for _, pol := range pols {
				if err := d.addPolicy(pol); err != nil {
					return err
				}
			}
			d.refFile = rf
			d.prefs = prefs
			return nil
		},
		purgeBound: true,
	}, nil
}

// MutationError names the mutation whose edit failed in a batch of more
// than one: Index is its zero-based position, Of the batch length, and
// Err exactly what a one-mutation batch of it would have returned.
type MutationError struct {
	Index, Of int
	Err       error
}

func (e *MutationError) Error() string {
	return fmt.Sprintf("core: batch mutation %d of %d: %v", e.Index+1, e.Of, e.Err)
}

func (e *MutationError) Unwrap() error { return e.Err }

// ApplyBatch applies the mutations in order onto one draft of the
// current snapshot, materializes once, and publishes once. All-or-
// nothing across the whole batch: an edit error or rebuild failure
// leaves the site exactly as it was. An edit error in a batch of more
// than one is a *MutationError naming the offending mutation; a
// one-mutation batch returns the edit's error unwrapped. This is the one
// apply path — durable writers, recovery replay and follower apply all
// feed their mutations through it, paying one backend rebuild for N.
func (s *Site) ApplyBatch(muts []Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	prev := s.state.Load()
	d := prev.draft()
	for i := range muts {
		if err := muts[i].edit(d); err != nil {
			if len(muts) > 1 {
				return &MutationError{Index: i, Of: len(muts), Err: err}
			}
			return err
		}
	}
	next, err := s.materialize(prev, d)
	if err != nil {
		return err
	}
	// Pre-warm the decision cache against the successor snapshot before
	// it is published: carried-forward and index-selected decisions are
	// keyed by next's generation, which no reader can observe yet, so
	// the first visitor after the swap lands on a warm cache instead of
	// a miss storm (prewarm.go).
	s.prewarm(prev, next)
	s.state.Store(next)
	for i := range muts {
		if muts[i].purgeBound {
			s.conv.purgePolicyBound()
		}
		for _, name := range muts[i].purgeNames {
			s.conv.purgePolicy(name)
		}
	}
	return nil
}
