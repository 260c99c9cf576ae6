package sqlgen

import (
	"fmt"
	"strings"

	"p3pdb/internal/appel"
	"p3pdb/internal/reldb"
	"p3pdb/internal/shred"
)

// The generic translator serves no request — it exists for the paper's
// Figure 11/13 comparison and the schema ablations — and writes SQL text
// directly, as the paper's algorithm does. The helpers at the end of this
// file are its string-level counterparts of optimized.go's tree builders.

// GenericOptions configure translation against the generic (Figure 8)
// schema.
type GenericOptions struct {
	// ViewReconstruction wraps every element table access in a derived
	// table, emulating the XML-view reconstruction layer the XTABLE
	// prototype interposed when translating XQuery over an XML view of
	// the relational tables. The wrapper defeats index-driven access
	// paths and inflates the statement's subquery count — the "untapped
	// optimizations" the paper blames for XTABLE's slower and sometimes
	// unexecutable SQL (Figure 21's missing Medium entry).
	ViewReconstruction bool
}

// TranslateRulesetGeneric translates every rule of a preference against
// the generic schema.
func TranslateRulesetGeneric(rs *appel.Ruleset, applicable string, opts GenericOptions) ([]RuleQuery, error) {
	out := make([]RuleQuery, 0, len(rs.Rules))
	for i, r := range rs.Rules {
		q, err := TranslateRuleGeneric(r, applicable, opts)
		if err != nil {
			return nil, fmt.Errorf("sqlgen: rule %d: %w", i+1, err)
		}
		out = append(out, q)
	}
	return out, nil
}

// TranslateRuleGeneric translates one APPEL rule into SQL over the generic
// one-table-per-element schema. This is the Figure 11 algorithm: main()
// emits the behavior SELECT over the applicable policy, and match()
// recursively emits one EXISTS subquery per APPEL expression, joining each
// element table to its parent through the foreign key that the Figure 8
// decomposition gave it.
func TranslateRuleGeneric(r *appel.Rule, applicable string, opts GenericOptions) (RuleQuery, error) {
	g := &genTranslator{reg: shred.GenericRegistry(), opts: opts}
	sql := "SELECT " + sqlString(r.Behavior) + " FROM (" + applicable + ") AS ApplicablePolicy"
	if len(r.Body) > 0 {
		conds := make([]string, 0, len(r.Body))
		for _, e := range r.Body {
			if e.Name != "POLICY" {
				return RuleQuery{}, fmt.Errorf("rule body must pattern over POLICY, got %s", e.Name)
			}
			cond, err := g.match(e, parentRef{alias: "ApplicablePolicy", pkCols: []string{"policy_id"}})
			if err != nil {
				return RuleQuery{}, err
			}
			conds = append(conds, cond)
		}
		body, err := combineConditions(r.EffectiveConnective(), conds)
		if err != nil {
			return RuleQuery{}, err
		}
		sql += " WHERE " + body
	}
	return RuleQuery{Behavior: r.Behavior, SQL: sql, Prompt: r.Prompt}, nil
}

// parentRef tells match() how to join a child table to its parent row: the
// alias of the parent's row and the parent's primary-key columns, ordered
// to correspond with the child's foreign-key columns.
type parentRef struct {
	alias  string
	pkCols []string
}

type genTranslator struct {
	reg  map[string]shred.GenericTable
	opts GenericOptions
	n    int
}

func (g *genTranslator) alias() string {
	g.n++
	return fmt.Sprintf("t%d", g.n)
}

// fromClause renders the FROM item for an element table, optionally
// wrapped in the XML-view reconstruction derived table.
func (g *genTranslator) fromClause(table, alias string) string {
	if g.opts.ViewReconstruction {
		return "(SELECT * FROM " + table + ") AS " + alias
	}
	return table + " " + alias
}

// match translates one APPEL expression into an EXISTS subquery: Figure 11
// lines 10-23.
func (g *genTranslator) match(e *appel.Expr, parent parentRef) (string, error) {
	t, ok := g.reg[e.Name]
	if !ok {
		return "", fmt.Errorf("no generic table for element %s", e.Name)
	}
	a := g.alias()
	join, err := g.joinCond(t, a, parent)
	if err != nil {
		return "", err
	}
	body, err := g.matchCond(e, t, a)
	if err != nil {
		return "", err
	}
	where := join
	if body != "" {
		where += " AND " + body
	}
	return "EXISTS (SELECT * FROM " + g.fromClause(t.TableName(), a) + " WHERE " + where + ")", nil
}

// joinCond generates the path connecting the element with its parent
// element (Figure 11 line 15): the child's foreign key equals the parent's
// primary key.
func (g *genTranslator) joinCond(t shred.GenericTable, a string, parent parentRef) (string, error) {
	fks := t.FKColumns()
	if len(fks) == 0 {
		// The root element (POLICY) has no foreign key; it is selected by
		// its own id matching the applicable policy.
		return a + "." + t.IDColumn() + " = " + parent.alias + "." + parent.pkCols[0], nil
	}
	if len(fks) != len(parent.pkCols) {
		return "", fmt.Errorf("element %s cannot appear under %s: key arity %d vs %d",
			t.Element(), parent.alias, len(fks), len(parent.pkCols))
	}
	parts := make([]string, len(fks))
	for i := range fks {
		parts[i] = a + "." + fks[i] + " = " + parent.alias + "." + parent.pkCols[i]
	}
	return strings.Join(parts, " AND "), nil
}

// matchCond generates the attribute and subexpression conditions for a row
// of element e bound to alias a (Figure 11 lines 16-21), without the
// enclosing EXISTS.
func (g *genTranslator) matchCond(e *appel.Expr, t shred.GenericTable, a string) (string, error) {
	var conds []string
	known := map[string]bool{}
	for _, attr := range t.Attrs() {
		known[attr] = true
	}
	for _, attr := range e.Attrs {
		if !known[attr.Name] {
			return "", fmt.Errorf("element %s has no attribute %q", e.Name, attr.Name)
		}
		if attr.Value == "*" {
			continue
		}
		if e.Name == "DATA" && attr.Name == "ref" {
			conds = append(conds, refCondition(a+"."+shred.Ident(attr.Name), attr.Value))
			continue
		}
		conds = append(conds, a+"."+shred.Ident(attr.Name)+" = "+sqlString(attr.Value))
	}
	if len(e.Children) > 0 {
		sub, err := g.combineChildren(e, t, a)
		if err != nil {
			return "", err
		}
		conds = append(conds, sub)
	}
	return strings.Join(conds, " AND "), nil
}

// combineChildren applies e's connective over its subexpressions, each
// translated to an EXISTS against the row bound to alias a. The exact
// connectives additionally require that the policy element contains only
// listed subelements, which in the generic schema expands to a NOT EXISTS
// over every possible child table — the combinatorial growth that makes
// the view-reconstructed Medium preference exceed the engine's statement
// complexity limit.
func (g *genTranslator) combineChildren(e *appel.Expr, t shred.GenericTable, a string) (string, error) {
	self := parentRef{alias: a, pkCols: append([]string{t.IDColumn()}, t.FKColumns()...)}
	conds := make([]string, 0, len(e.Children))
	for _, kid := range e.Children {
		c, err := g.match(kid, self)
		if err != nil {
			return "", err
		}
		conds = append(conds, c)
	}
	conn := e.EffectiveConnective()
	switch conn {
	case appel.ConnAnd, appel.ConnOr, appel.ConnNonAnd, appel.ConnNonOr:
		return combineConditions(conn, conds)
	case appel.ConnAndExact, appel.ConnOrExact:
		var base string
		var err error
		if conn == appel.ConnAndExact {
			base, err = combineConditions(appel.ConnAnd, conds)
		} else {
			base, err = combineConditions(appel.ConnOr, conds)
		}
		if err != nil {
			return "", err
		}
		exact, err := g.exactCond(e, t, self)
		if err != nil {
			return "", err
		}
		return "(" + base + " AND " + exact + ")", nil
	}
	return "", fmt.Errorf("unknown connective %q", e.Connective)
}

// exactCond generates the "policy contains only elements listed in the
// rule" half of the exact connectives: for every element that can occur as
// a child of e's element, either it is absent, or every row of it matches
// one of the listed subexpressions of that name.
func (g *genTranslator) exactCond(e *appel.Expr, t shred.GenericTable, self parentRef) (string, error) {
	// Group listed subexpressions by element name.
	listed := map[string][]*appel.Expr{}
	for _, kid := range e.Children {
		listed[kid.Name] = append(listed[kid.Name], kid)
	}
	var conds []string
	for _, child := range g.childrenOf(t.Element()) {
		a := g.alias()
		join, err := g.joinCond(child, a, self)
		if err != nil {
			return "", err
		}
		exprs := listed[child.Element()]
		if len(exprs) == 0 {
			// Unlisted element type: must be absent.
			conds = append(conds,
				"NOT EXISTS (SELECT * FROM "+g.fromClause(child.TableName(), a)+" WHERE "+join+")")
			continue
		}
		// Listed: no row may fail all the listed patterns of its name.
		var rowMatches []string
		for _, ex := range exprs {
			mc, err := g.matchCond(ex, child, a)
			if err != nil {
				return "", err
			}
			if mc == "" {
				mc = "1 = 1"
			}
			rowMatches = append(rowMatches, "("+mc+")")
		}
		conds = append(conds,
			"NOT EXISTS (SELECT * FROM "+g.fromClause(child.TableName(), a)+" WHERE "+join+
				" AND NOT ("+strings.Join(rowMatches, " OR ")+"))")
	}
	if len(conds) == 0 {
		return "1 = 1", nil
	}
	return "(" + strings.Join(conds, " AND ") + ")", nil
}

// childrenOf returns the registry entries whose immediate parent is the
// given element, in registry order.
func (g *genTranslator) childrenOf(element string) []shred.GenericTable {
	var out []shred.GenericTable
	for _, name := range genericOrder {
		t := g.reg[name]
		if p := t.Parents(); len(p) > 0 && p[0] == element {
			out = append(out, t)
		}
	}
	return out
}

// genericOrder fixes a deterministic iteration order over the registry.
var genericOrder = func() []string {
	var names []string
	for name := range shred.GenericRegistry() {
		names = append(names, name)
	}
	// Sort without importing sort at init time complexity: simple
	// insertion sort keeps this dependency-free and runs once.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}()

// combineConditions joins already-built boolean conditions with an APPEL
// connective. Exact connectives cannot be expressed at this level (they
// constrain the policy's elements, not conditions) and are handled by the
// per-element translators; reaching here with one is an authoring error.
func combineConditions(connective string, conds []string) (string, error) {
	wrap := func(sep string) string {
		if len(conds) == 1 {
			return conds[0]
		}
		return "(" + strings.Join(conds, sep) + ")"
	}
	switch connective {
	case appel.ConnAnd:
		return wrap(" AND "), nil
	case appel.ConnOr:
		return wrap(" OR "), nil
	case appel.ConnNonAnd:
		return "NOT " + forceParens(wrap(" AND ")), nil
	case appel.ConnNonOr:
		return "NOT " + forceParens(wrap(" OR ")), nil
	case appel.ConnAndExact, appel.ConnOrExact:
		return "", fmt.Errorf("connective %s is only supported on value-list elements (PURPOSE, RECIPIENT, CATEGORIES, RETENTION)", connective)
	}
	return "", fmt.Errorf("unknown connective %q", connective)
}

func forceParens(s string) string {
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		return s
	}
	return "(" + s + ")"
}

func sqlString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// refCondition builds the hierarchical data-reference predicate: the
// pattern matches a stored (leaf-expanded) reference when they are equal
// or one is a dotted prefix of the other.
func refCondition(col, ref string) string {
	if ref == "*" {
		return ""
	}
	r := ref
	if !strings.HasPrefix(r, "#") {
		r = "#" + r
	}
	lit := sqlString(r)
	below := sqlString(reldb.EscapeLike(r) + ".%")
	return "(" + col + " = " + lit +
		" OR " + col + " LIKE " + below +
		" OR " + lit + " LIKE " + col + " || '.%')"
}
