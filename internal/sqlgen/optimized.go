// Package sqlgen translates APPEL preferences into SQL queries: the
// paper's Section 5.3 (generic schema, Figure 11) and Section 5.4
// (optimized schema, Figure 15, with per-element subqueries for PURPOSE /
// RECIPIENT / CATEGORIES values merged into single subqueries over their
// parent's table).
//
// Each APPEL rule becomes one SELECT returning the rule's behavior; the
// FROM clause is the applicablePolicy() derived table produced by the
// reffile package, and the WHERE clause mirrors the rule body as nested
// correlated EXISTS subqueries. Rules are executed in order; the first
// query to return a row decides the outcome (package core drives that
// loop).
//
// The optimized translator — the one a site serves with — builds each
// query as the tree reldb executes (BuildRulesetOptimized) and never
// writes SQL text; TranslateRulesetOptimized prints those trees for
// everything that wants the text: display, the Figure 15 shape tests, the
// benchmarks' text entry points.
package sqlgen

import (
	"fmt"
	"strconv"
	"strings"

	"p3pdb/internal/appel"
	"p3pdb/internal/reldb"
)

// RuleQuery is the translation of one APPEL rule.
type RuleQuery struct {
	// Behavior is the rule's behavior, returned when the query yields a
	// row.
	Behavior string
	// SQL is the translated query. For an empty-body (catch-all) rule it
	// selects the behavior for any applicable policy.
	SQL string
	// Prompt mirrors the rule's prompt attribute.
	Prompt bool
}

// RuleStmt is the translation of one APPEL rule as the statement reldb
// executes: what RuleQuery.SQL is the printed form of.
type RuleStmt struct {
	Behavior string
	Stmt     *reldb.SelectStmt
	Prompt   bool
}

// FixedPolicySubquery returns an applicablePolicy() replacement that names
// a specific policy id directly, used when the caller has already resolved
// the reference file (the hybrid architecture of §4.2) or matches a policy
// by name.
func FixedPolicySubquery(policyID int) string {
	return fmt.Sprintf("SELECT %d AS policy_id", policyID)
}

// ParamPolicySubquery returns the applicablePolicy() replacement that
// leaves the policy id as the statement's one parameter — SELECT ? AS
// policy_id — so a single translation serves every policy of a site.
func ParamPolicySubquery() *reldb.SelectStmt {
	return &reldb.SelectStmt{
		Items: []reldb.SelectItem{{Expr: &reldb.Param{}, Alias: "policy_id"}},
		Limit: -1,
	}
}

// TranslateRulesetOptimized translates every rule of a preference against
// the optimized (Figure 14) schema, as text. applicable is the
// applicablePolicy() subquery (reffile.ApplicablePolicySubquery or
// FixedPolicySubquery). The text is the printed form of what
// BuildRulesetOptimized builds.
func TranslateRulesetOptimized(rs *appel.Ruleset, applicable string) ([]RuleQuery, error) {
	sub, err := parseApplicable(applicable)
	if err != nil {
		return nil, err
	}
	built, err := BuildRulesetOptimized(rs, sub)
	if err != nil {
		return nil, err
	}
	out := make([]RuleQuery, len(built))
	for i, b := range built {
		out[i] = b.print()
	}
	return out, nil
}

// TranslateRuleOptimized translates one APPEL rule into a SQL query over
// the optimized schema.
func TranslateRuleOptimized(r *appel.Rule, applicable string) (RuleQuery, error) {
	sub, err := parseApplicable(applicable)
	if err != nil {
		return RuleQuery{}, err
	}
	b, err := buildRuleOptimized(r, sub)
	if err != nil {
		return RuleQuery{}, err
	}
	return b.print(), nil
}

func (b RuleStmt) print() RuleQuery {
	return RuleQuery{Behavior: b.Behavior, SQL: b.Stmt.SQL(), Prompt: b.Prompt}
}

func parseApplicable(applicable string) (*reldb.SelectStmt, error) {
	stmt, err := reldb.Parse(applicable)
	if err != nil {
		return nil, fmt.Errorf("sqlgen: applicable-policy subquery: %w", err)
	}
	sel, ok := stmt.(*reldb.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlgen: applicable-policy subquery must be a SELECT, got %T", stmt)
	}
	return sel, nil
}

// BuildRulesetOptimized translates every rule of a preference against the
// optimized (Figure 14) schema into executable statements. applicable is
// the applicablePolicy() subquery; the rules share it, and statements are
// never modified once built. The caller applies the engine's
// statement-complexity limits (reldb.Options.CheckComplexity), as Prepare
// would to text.
func BuildRulesetOptimized(rs *appel.Ruleset, applicable *reldb.SelectStmt) ([]RuleStmt, error) {
	out := make([]RuleStmt, 0, len(rs.Rules))
	for i, r := range rs.Rules {
		q, err := buildRuleOptimized(r, applicable)
		if err != nil {
			return nil, fmt.Errorf("sqlgen: rule %d: %w", i+1, err)
		}
		out = append(out, q)
	}
	return out, nil
}

// buildRuleOptimized translates one APPEL rule into a query over the
// optimized schema. This is the paper's main() function (Figure 11)
// adapted to the Figure 14 tables.
func buildRuleOptimized(r *appel.Rule, applicable *reldb.SelectStmt) (RuleStmt, error) {
	c := &optTranslator{}
	sel := &reldb.SelectStmt{
		Items: []reldb.SelectItem{{Expr: str(r.Behavior)}},
		From:  []reldb.FromItem{{Subquery: applicable, Alias: "ApplicablePolicy"}},
		Limit: -1,
	}
	if len(r.Body) > 0 {
		conds := make([]reldb.Expr, 0, len(r.Body))
		for _, e := range r.Body {
			if e.Name != "POLICY" {
				return RuleStmt{}, fmt.Errorf("rule body must pattern over POLICY, got %s", e.Name)
			}
			cond, err := c.matchPolicy(e)
			if err != nil {
				return RuleStmt{}, err
			}
			conds = append(conds, cond)
		}
		body, err := combine(r.EffectiveConnective(), conds)
		if err != nil {
			return RuleStmt{}, err
		}
		sel.Where = body
	}
	return RuleStmt{Behavior: r.Behavior, Stmt: sel, Prompt: r.Prompt}, nil
}

// optTranslator carries the alias counter for one rule translation.
type optTranslator struct {
	n int
}

func (c *optTranslator) alias(prefix string) string {
	c.n++
	return prefix + strconv.Itoa(c.n)
}

// Node constructors. Trees are built in the shape the parser gives the
// same SQL (chains nest to the left, NOT is a UnaryExpr), so a printed
// statement parses back to the tree it was printed from.

func col(table, column string) reldb.Expr {
	return &reldb.ColumnRef{Table: table, Column: column}
}

func str(s string) reldb.Expr { return &reldb.Literal{Value: reldb.Str(s)} }

func num(n int64) reldb.Expr { return &reldb.Literal{Value: reldb.Int(n)} }

func binary(op string, l, r reldb.Expr) reldb.Expr {
	return &reldb.BinaryExpr{Op: op, Left: l, Right: r}
}

func eq(l, r reldb.Expr) reldb.Expr { return binary("=", l, r) }

func not(e reldb.Expr) reldb.Expr { return &reldb.UnaryExpr{Op: "NOT", Operand: e} }

func notNull(e reldb.Expr) reldb.Expr { return &reldb.IsNullExpr{Operand: e, Negated: true} }

// chain joins conditions with AND or OR; one condition stands for itself.
func chain(op string, conds []reldb.Expr) reldb.Expr {
	e := conds[0]
	for _, c := range conds[1:] {
		e = binary(op, e, c)
	}
	return e
}

func and(conds ...reldb.Expr) reldb.Expr { return chain("AND", conds) }

func or(conds ...reldb.Expr) reldb.Expr { return chain("OR", conds) }

// exists builds EXISTS (SELECT * FROM table alias WHERE conds...).
func exists(table, alias string, conds []reldb.Expr) reldb.Expr {
	return &reldb.ExistsExpr{Subquery: &reldb.SelectStmt{
		Star:  true,
		From:  []reldb.FromItem{{Table: table, Alias: alias}},
		Where: and(conds...),
		Limit: -1,
	}}
}

// joinOn equates the key columns of a child alias with its parent's.
func joinOn(child, parent string, keys ...string) []reldb.Expr {
	conds := make([]reldb.Expr, len(keys))
	for i, k := range keys {
		conds[i] = eq(col(child, k), col(parent, k))
	}
	return conds
}

// combine joins already-built boolean conditions with an APPEL connective.
// Exact connectives cannot be expressed at this level (they constrain the
// policy's elements, not conditions) and are handled by the per-element
// translators; reaching here with one is an authoring error.
func combine(connective string, conds []reldb.Expr) (reldb.Expr, error) {
	switch connective {
	case appel.ConnAnd:
		return and(conds...), nil
	case appel.ConnOr:
		return or(conds...), nil
	case appel.ConnNonAnd:
		return not(and(conds...)), nil
	case appel.ConnNonOr:
		return not(or(conds...)), nil
	case appel.ConnAndExact, appel.ConnOrExact:
		return nil, fmt.Errorf("connective %s is only supported on value-list elements (PURPOSE, RECIPIENT, CATEGORIES, RETENTION)", connective)
	}
	return nil, fmt.Errorf("unknown connective %q", connective)
}

// withChildren appends the combination of an expression's subexpression
// conditions, when it has any, to the conditions on the element itself.
func withChildren(conds []reldb.Expr, e *appel.Expr, kidConds []reldb.Expr) ([]reldb.Expr, error) {
	if len(kidConds) == 0 {
		return conds, nil
	}
	combined, err := combine(e.EffectiveConnective(), kidConds)
	if err != nil {
		return nil, err
	}
	return append(conds, combined), nil
}

// policyColumns are the POLICY attributes an expression may pattern on,
// each stored in the column of the same name.
var policyColumns = map[string]bool{"name": true, "discuri": true, "opturi": true}

// matchPolicy translates a POLICY expression: Figure 13 lines 5-8.
func (c *optTranslator) matchPolicy(e *appel.Expr) (reldb.Expr, error) {
	a := c.alias("p")
	conds := joinOn(a, "ApplicablePolicy", "policy_id")
	for _, attr := range e.Attrs {
		if !policyColumns[attr.Name] {
			return nil, fmt.Errorf("unsupported POLICY attribute %q", attr.Name)
		}
		if attr.Value != "*" {
			conds = append(conds, eq(col(a, attr.Name), str(attr.Value)))
		}
	}
	var kidConds []reldb.Expr
	for _, kid := range e.Children {
		switch kid.Name {
		case "STATEMENT":
			cond, err := c.matchStatement(kid, a)
			if err != nil {
				return nil, err
			}
			kidConds = append(kidConds, cond)
		case "ACCESS":
			cond, err := valueColumnCond(kid, col(a, "access"), "ACCESS")
			if err != nil {
				return nil, err
			}
			kidConds = append(kidConds, cond)
		case "TEST":
			kidConds = append(kidConds, eq(col(a, "test"), num(1)))
		default:
			return nil, fmt.Errorf("unsupported expression %s under POLICY", kid.Name)
		}
	}
	conds, err := withChildren(conds, e, kidConds)
	if err != nil {
		return nil, err
	}
	return exists("Policy", a, conds), nil
}

// matchStatement translates a STATEMENT expression: Figure 13 lines 9-12.
func (c *optTranslator) matchStatement(e *appel.Expr, polAlias string) (reldb.Expr, error) {
	a := c.alias("s")
	var kidConds []reldb.Expr
	for _, kid := range e.Children {
		var cond reldb.Expr
		var err error
		switch kid.Name {
		case "PURPOSE":
			cond, err = c.valueListCond(kid, "Purpose", "purpose", a)
		case "RECIPIENT":
			cond, err = c.valueListCond(kid, "Recipient", "recipient", a)
		case "RETENTION":
			// The retention column is folded into Statement (the second
			// Figure 14 optimization).
			cond, err = valueColumnCond(kid, col(a, "retention"), "RETENTION")
		case "DATA-GROUP":
			cond, err = c.matchDataGroup(kid, a)
		case "CONSEQUENCE":
			cond = notNull(col(a, "consequence"))
		case "NON-IDENTIFIABLE":
			cond = eq(col(a, "non_identifiable"), num(1))
		default:
			err = fmt.Errorf("unsupported expression %s under STATEMENT", kid.Name)
		}
		if err != nil {
			return nil, err
		}
		kidConds = append(kidConds, cond)
	}
	conds, err := withChildren(joinOn(a, polAlias, "policy_id"), e, kidConds)
	if err != nil {
		return nil, err
	}
	return exists("Statement", a, conds), nil
}

// valueRows translates a value-list expression (PURPOSE, RECIPIENT,
// CATEGORIES) against the rows that hold the element's values, one row
// per value, joined to the parent by join. This is where Figure 13's
// per-value subqueries merge into the single subquery of Figure 15, for
// every connective including the exact forms. preds are the row
// predicates of the listed values; present, when set, restricts the rows
// that count as values at all (category rows share the Data table with
// the DATA element's own row).
func valueRows(e *appel.Expr, table, alias string, join, preds []reldb.Expr, present reldb.Expr) (reldb.Expr, error) {
	// The join conditions are shared by every subquery built here.
	where := func(extra ...reldb.Expr) reldb.Expr {
		return exists(table, alias, append(join[:len(join):len(join)], extra...))
	}
	// An expression with no listed values just asserts the element's
	// existence: some row that counts as a value.
	var isValue []reldb.Expr
	if present != nil {
		isValue = []reldb.Expr{present}
	}
	if len(preds) == 0 {
		return where(isValue...), nil
	}
	disj := or(preds...)
	unlisted := append([]reldb.Expr{not(disj)}, isValue...) // a value row outside the listed ones
	each := func() []reldb.Expr {
		all := make([]reldb.Expr, len(preds))
		for i, p := range preds {
			all[i] = where(p)
		}
		return all
	}
	switch e.EffectiveConnective() {
	case appel.ConnOr:
		return where(disj), nil
	case appel.ConnAnd:
		return and(each()...), nil
	case appel.ConnNonOr:
		return and(where(isValue...), not(where(disj))), nil
	case appel.ConnNonAnd:
		return and(where(isValue...), not(and(each()...))), nil
	case appel.ConnAndExact:
		return and(append(each(), not(where(unlisted...)))...), nil
	case appel.ConnOrExact:
		return and(where(disj), not(where(unlisted...))), nil
	}
	return nil, fmt.Errorf("unknown connective %q", e.Connective)
}

// valueListCond translates PURPOSE and RECIPIENT expressions against the
// folded value tables of the optimized schema.
func (c *optTranslator) valueListCond(e *appel.Expr, table, valueCol, stmtAlias string) (reldb.Expr, error) {
	a := c.alias("u")
	// Row predicate for each listed value subexpression.
	preds := make([]reldb.Expr, 0, len(e.Children))
	for _, kid := range e.Children {
		if len(kid.Children) > 0 {
			return nil, fmt.Errorf("value element %s must not have subelements", kid.Name)
		}
		pred := eq(col(a, valueCol), str(kid.Name))
		for _, attr := range kid.Attrs {
			if attr.Name != "required" {
				return nil, fmt.Errorf("unsupported attribute %q on %s", attr.Name, kid.Name)
			}
			if attr.Value == "*" {
				continue
			}
			pred = and(pred, eq(col(a, "required"), str(attr.Value)))
		}
		preds = append(preds, pred)
	}
	return valueRows(e, table, a, joinOn(a, stmtAlias, "policy_id", "statement_id"), preds, nil)
}

// valueColumnCond matches a value-list expression against a single-valued
// column (Statement.retention, Policy.access). The single-valued column
// makes the exact connectives collapse: a statement has exactly one
// retention, so or-exact equals or and and-exact over more than one value
// is unsatisfiable.
func valueColumnCond(e *appel.Expr, column reldb.Expr, what string) (reldb.Expr, error) {
	preds := make([]reldb.Expr, 0, len(e.Children))
	for _, kid := range e.Children {
		if len(kid.Children) > 0 || len(kid.Attrs) > 0 {
			return nil, fmt.Errorf("%s value element %s must be empty", what, kid.Name)
		}
		preds = append(preds, eq(column, str(kid.Name)))
	}
	if len(preds) == 0 {
		return notNull(column), nil
	}
	switch e.EffectiveConnective() {
	case appel.ConnOr, appel.ConnOrExact:
		return or(preds...), nil
	case appel.ConnAnd, appel.ConnAndExact:
		return and(preds...), nil
	case appel.ConnNonOr:
		return and(notNull(column), not(or(preds...))), nil
	case appel.ConnNonAnd:
		return and(notNull(column), not(and(preds...))), nil
	}
	return nil, fmt.Errorf("unknown connective %q", e.Connective)
}

// matchDataGroup translates a DATA-GROUP expression.
func (c *optTranslator) matchDataGroup(e *appel.Expr, stmtAlias string) (reldb.Expr, error) {
	a := c.alias("g")
	conds := joinOn(a, stmtAlias, "policy_id", "statement_id")
	for _, attr := range e.Attrs {
		if attr.Name != "base" {
			return nil, fmt.Errorf("unsupported DATA-GROUP attribute %q", attr.Name)
		}
		if attr.Value != "*" {
			conds = append(conds, eq(col(a, "base"), str(attr.Value)))
		}
	}
	var kidConds []reldb.Expr
	for _, kid := range e.Children {
		if kid.Name != "DATA" {
			return nil, fmt.Errorf("unsupported expression %s under DATA-GROUP", kid.Name)
		}
		cond, err := c.matchData(kid, a)
		if err != nil {
			return nil, err
		}
		kidConds = append(kidConds, cond)
	}
	conds, err := withChildren(conds, e, kidConds)
	if err != nil {
		return nil, err
	}
	return exists("Datagroup", a, conds), nil
}

// refCond builds the hierarchical data-reference predicate: the pattern
// matches a stored (leaf-expanded) reference when they are equal or one
// is a dotted prefix of the other.
func refCond(column reldb.Expr, ref string) reldb.Expr {
	if !strings.HasPrefix(ref, "#") {
		ref = "#" + ref
	}
	return or(
		eq(column, str(ref)),
		binary("LIKE", column, str(reldb.EscapeLike(ref)+".%")),
		binary("LIKE", str(ref), binary("||", column, str(".%"))),
	)
}

// matchData translates a DATA expression, including CATEGORIES
// subexpressions against the category rows folded into the Data table (the
// third Figure 14 optimization).
func (c *optTranslator) matchData(e *appel.Expr, dgAlias string) (reldb.Expr, error) {
	a := c.alias("d")
	conds := joinOn(a, dgAlias, "policy_id", "statement_id", "datagroup_id")
	for _, attr := range e.Attrs {
		switch attr.Name {
		case "ref":
			if attr.Value != "*" {
				conds = append(conds, refCond(col(a, "ref"), attr.Value))
			}
		case "optional":
			if attr.Value == "*" {
				continue
			}
			v := int64(0)
			if strings.EqualFold(attr.Value, "yes") {
				v = 1
			}
			conds = append(conds, eq(col(a, "optional"), num(v)))
		default:
			return nil, fmt.Errorf("unsupported DATA attribute %q", attr.Name)
		}
	}
	var kidConds []reldb.Expr
	for _, kid := range e.Children {
		if kid.Name != "CATEGORIES" {
			return nil, fmt.Errorf("unsupported expression %s under DATA", kid.Name)
		}
		cond, err := c.categoriesCond(kid, a)
		if err != nil {
			return nil, err
		}
		kidConds = append(kidConds, cond)
	}
	conds, err := withChildren(conds, e, kidConds)
	if err != nil {
		return nil, err
	}
	return exists("Data", a, conds), nil
}

// categoriesCond translates a CATEGORIES expression against the category
// rows that share the parent DATA element's id.
func (c *optTranslator) categoriesCond(e *appel.Expr, dataAlias string) (reldb.Expr, error) {
	a := c.alias("c")
	preds := make([]reldb.Expr, 0, len(e.Children))
	for _, kid := range e.Children {
		if len(kid.Children) > 0 || len(kid.Attrs) > 0 {
			return nil, fmt.Errorf("category value element %s must be empty", kid.Name)
		}
		preds = append(preds, eq(col(a, "category"), str(kid.Name)))
	}
	join := joinOn(a, dataAlias, "policy_id", "statement_id", "datagroup_id", "data_id")
	return valueRows(e, "Data", a, join, preds, binary("<>", col(a, "category"), str("")))
}
