package core

import (
	"context"
	"fmt"
	"time"

	"p3pdb/internal/appel"
	"p3pdb/internal/reldb"
	"p3pdb/internal/resource"
	"p3pdb/internal/sqlgen"
)

// CompiledPreference is a preference translated once into the statements
// the site's database executes, with the policy id left as a parameter.
// It realizes the deployment the paper sketches in Section 6.3.2: "it is
// not unreasonable to think of a P3P deployment in which the preference
// generation GUI tool produces preferences as a set of SQL statements" —
// returning users then skip both APPEL parsing and SQL translation on
// every visit.
type CompiledPreference struct {
	// conv is a conversion entry of its own, outside the site's cache,
	// with the SQL translation filled in.
	conv *prefConv
	// Compile is the one-time cost that per-match conversion would
	// otherwise pay on every visit.
	Compile time.Duration
}

// compileRules translates rs against the optimized schema with the
// policy id left as a parameter — so one compilation serves every policy
// on the site. The statements are built as reldb executes them; no SQL
// text is written or parsed. They are admitted under the same statement-
// complexity limits a database opened with dbOpts applies to text it
// prepares.
func compileRules(rs *appel.Ruleset, dbOpts reldb.Options) ([]reldb.Statement, error) {
	queries, err := sqlgen.BuildRulesetOptimized(rs, sqlgen.ParamPolicySubquery())
	if err != nil {
		return nil, err
	}
	stmts := make([]reldb.Statement, 0, len(queries))
	for i, q := range queries {
		if err := dbOpts.CheckComplexity(q.Stmt); err != nil {
			return nil, fmt.Errorf("core: preparing rule %d: %w", i+1, err)
		}
		stmts = append(stmts, q.Stmt)
	}
	return stmts, nil
}

// CompilePreference translates a preference against the optimized
// schema. The result is bound to this site's schema and database limits
// but not to any policy or snapshot.
func (s *Site) CompilePreference(prefXML string) (*CompiledPreference, error) {
	start := time.Now()
	rs, err := appel.Parse(prefXML)
	if err != nil {
		return nil, err
	}
	c := &prefConv{xml: prefXML, rs: rs}
	if _, err := s.sqlConversion(c); err != nil {
		return nil, err
	}
	return &CompiledPreference{conv: c, Compile: time.Since(start)}, nil
}

// MatchCompiled evaluates a compiled preference against a named policy.
// Only query execution remains on the per-visit path, under the site's
// match budget. Compiled matches run lock-free against the current
// snapshot, concurrently with each other, with every other match, and
// with policy writes: the statements and the plans reldb binds for them
// depend on the schema, not on a database, so a compilation outlives its
// snapshot.
func (s *Site) MatchCompiled(c *CompiledPreference, policyName string) (Decision, error) {
	st := s.state.Load()
	if _, ok := st.ids[policyName]; !ok {
		return Decision{}, fmt.Errorf("core: policy %q not installed", policyName)
	}
	ctx := context.TODO() // MatchCompiled takes no context
	d, err := s.evaluate(ctx, st, c.conv, policyName, EngineSQL, nil, resource.NewMeter(ctx, s.matchBudget))
	if err != nil {
		return Decision{}, err
	}
	// Reading the pre-filled translation is this visit's only conversion
	// work; it is query-side time, and Convert stays zero.
	d.Query, d.Convert = d.Query+d.Convert, 0
	d.PolicyName = policyName
	d.Engine = EngineSQL
	s.recordConflict(d)
	return d, nil
}

// MatchCompiledURI resolves the URI through the reference file and
// evaluates the compiled preference against the covering policy.
func (s *Site) MatchCompiledURI(c *CompiledPreference, uri string) (Decision, error) {
	name, err := s.PolicyForURI(uri)
	if err != nil {
		return Decision{}, err
	}
	return s.MatchCompiled(c, name)
}
