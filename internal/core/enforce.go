package core

import (
	"fmt"

	"p3pdb/internal/p3p"
	"p3pdb/internal/reldb"
)

// UseDecision is the answer to "may this site use this data item for this
// purpose under its own installed policy?" — the enforcement direction
// the paper points at (Section 4.2: "the privacy data tables built for
// checking preferences against policies may serve as meta data for
// ensuring that policies are followed", developed further in the authors'
// Hippocratic databases work).
type UseDecision struct {
	// Allowed reports whether some statement of the policy covers the
	// data reference for the purpose.
	Allowed bool
	// Required is the consent level the covering statement attached to
	// the purpose: always, opt-in, or opt-out. Callers gate opt-in uses
	// on recorded consent. Empty when Allowed is false.
	Required string
	// Retention is the covering statement's retention disclosure, which
	// an enforcement layer would turn into a deletion schedule.
	Retention string
}

// AuthorizeUse checks a proposed internal data use against the installed
// policy's own disclosures, by querying the shredded privacy tables: the
// use is allowed when some statement both declares the purpose and
// collects the data reference (hierarchically, as in preference
// matching). This is a query over the same Figure 14 tables preference
// matching uses — the dual the paper highlights as the architecture's
// path to enforcement.
func (s *Site) AuthorizeUse(policyName, purpose, dataRef string) (UseDecision, error) {
	if !p3p.IsPurpose(purpose) {
		return UseDecision{}, fmt.Errorf("core: unknown purpose %q", purpose)
	}
	st := s.state.Load()
	e := st.entries[policyName]
	if e == nil {
		return UseDecision{}, fmt.Errorf("core: policy %q not installed", policyName)
	}
	ref := dataRef
	if len(ref) == 0 || ref[0] != '#' {
		ref = "#" + ref
	}
	rows, err := st.optDB.Query(`
		SELECT p.required, s.retention
		FROM Statement s, Purpose p
		WHERE s.policy_id = ? AND p.policy_id = s.policy_id
		  AND p.statement_id = s.statement_id AND p.purpose = ?
		  AND EXISTS (
		    SELECT * FROM Data d
		    WHERE d.policy_id = s.policy_id AND d.statement_id = s.statement_id
		      AND (d.ref = ? OR d.ref LIKE ? OR ? LIKE d.ref || '.%'))
		ORDER BY CASE WHEN p.required = 'always' THEN 0
		              WHEN p.required = 'opt-out' THEN 1
		              ELSE 2 END`,
		reldb.Int(int64(e.id)), reldb.Str(purpose),
		reldb.Str(ref), reldb.Str(reldb.EscapeLike(ref)+".%"), reldb.Str(ref))
	if err != nil {
		return UseDecision{}, err
	}
	if len(rows.Data) == 0 {
		return UseDecision{}, nil
	}
	// Several statements may cover the use; the ORDER BY ranks rows by
	// standing permission (always, then opt-out, then opt-in), so the
	// first row is the strongest permission the policy grants.
	return UseDecision{
		Allowed:   true,
		Required:  rows.Data[0][0].AsString(),
		Retention: rows.Data[0][1].AsString(),
	}, nil
}
