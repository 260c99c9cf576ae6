// Package reffile implements the P3P reference file (Section 2.3 of the
// paper): the META document through which a site associates subsets of its
// URIs with specific privacy policies, via INCLUDE/EXCLUDE (and
// COOKIE-INCLUDE/COOKIE-EXCLUDE) wildcard patterns.
//
// The package provides parsing, direct in-memory URI resolution (used by
// the client side of the hybrid architecture the paper sketches in §4.2),
// relational storage per Figure 16, and generation of the
// applicablePolicy() subquery that the APPEL-to-SQL translation embeds.
package reffile

import (
	"fmt"
	"strings"
	"sync"

	"p3pdb/internal/reldb"
	"p3pdb/internal/xmldom"
)

// PolicyRef is one POLICY-REF element: a policy and the URI patterns it
// covers.
type PolicyRef struct {
	// About references the policy, e.g. "/P3P/Policies.xml#volga".
	About string
	// Includes and Excludes are local-URI wildcard patterns ('*' matches
	// any run of characters).
	Includes []string
	Excludes []string
	// CookieIncludes and CookieExcludes are cookie-name patterns.
	CookieIncludes []string
	CookieExcludes []string
}

// PolicyName returns the fragment of the About reference, which names the
// policy inside the site's policy file.
func (pr *PolicyRef) PolicyName() string {
	if i := strings.IndexByte(pr.About, '#'); i >= 0 {
		return pr.About[i+1:]
	}
	return pr.About
}

// RefFile is a parsed META document.
type RefFile struct {
	PolicyRefs []*PolicyRef
}

// Parse parses a reference file document.
func Parse(src string) (*RefFile, error) {
	root, err := xmldom.ParseString(src)
	if err != nil {
		return nil, err
	}
	return FromDOM(root)
}

// FromDOM converts a parsed META element into a RefFile.
func FromDOM(root *xmldom.Node) (*RefFile, error) {
	if root.Name != "META" {
		return nil, fmt.Errorf("reffile: expected META root, got %s", root.Name)
	}
	prs := root.Child("POLICY-REFERENCES")
	if prs == nil {
		return nil, fmt.Errorf("reffile: META without POLICY-REFERENCES")
	}
	rf := &RefFile{}
	for _, el := range prs.ChildrenNamed("POLICY-REF") {
		about, ok := el.Attr("about")
		if !ok || about == "" {
			return nil, fmt.Errorf("reffile: POLICY-REF without about attribute")
		}
		pr := &PolicyRef{About: about}
		for _, c := range el.Children {
			switch c.Name {
			case "INCLUDE":
				pr.Includes = append(pr.Includes, c.Text)
			case "EXCLUDE":
				pr.Excludes = append(pr.Excludes, c.Text)
			case "COOKIE-INCLUDE":
				pr.CookieIncludes = append(pr.CookieIncludes, c.AttrDefault("name", c.Text))
			case "COOKIE-EXCLUDE":
				pr.CookieExcludes = append(pr.CookieExcludes, c.AttrDefault("name", c.Text))
			default:
				return nil, fmt.Errorf("reffile: unexpected element %s in POLICY-REF", c.Name)
			}
		}
		if len(pr.Includes) == 0 && len(pr.CookieIncludes) == 0 {
			return nil, fmt.Errorf("reffile: POLICY-REF %s has no INCLUDE", about)
		}
		rf.PolicyRefs = append(rf.PolicyRefs, pr)
	}
	if len(rf.PolicyRefs) == 0 {
		return nil, fmt.Errorf("reffile: no POLICY-REF elements")
	}
	return rf, nil
}

// ToDOM renders the reference file back to a META element.
func (rf *RefFile) ToDOM() *xmldom.Node {
	const ns = "http://www.w3.org/2002/01/P3Pv1"
	prs := xmldom.NewNS(ns, "POLICY-REFERENCES")
	for _, pr := range rf.PolicyRefs {
		el := xmldom.NewNS(ns, "POLICY-REF").SetAttr("about", pr.About)
		for _, p := range pr.Includes {
			el.Add(xmldom.NewNS(ns, "INCLUDE").SetText(p))
		}
		for _, p := range pr.Excludes {
			el.Add(xmldom.NewNS(ns, "EXCLUDE").SetText(p))
		}
		for _, p := range pr.CookieIncludes {
			el.Add(xmldom.NewNS(ns, "COOKIE-INCLUDE").SetAttr("name", p))
		}
		for _, p := range pr.CookieExcludes {
			el.Add(xmldom.NewNS(ns, "COOKIE-EXCLUDE").SetAttr("name", p))
		}
		prs.Add(el)
	}
	return xmldom.NewNS(ns, "META").Add(prs)
}

// String renders the reference file as an XML document.
func (rf *RefFile) String() string { return rf.ToDOM().String() }

// wildcardMatch matches a URI against a '*' wildcard pattern.
func wildcardMatch(pattern, uri string) bool {
	// Reuse LIKE semantics by translating the pattern.
	return likeViaPattern(WildcardToLike(pattern), uri)
}

// WildcardToLike translates a P3P '*' wildcard pattern into a SQL LIKE
// pattern, escaping LIKE metacharacters in the literal parts.
func WildcardToLike(pattern string) string {
	var b strings.Builder
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch c {
		case '*':
			b.WriteByte('%')
		case '%', '_', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// likeViaPattern applies a LIKE pattern outside the database (for the
// in-memory resolution path). Semantics match reldb's LIKE operator.
func likeViaPattern(pattern, s string) bool {
	// Minimal recursive matcher over %/_/escape, consistent with reldb.
	if pattern == "" {
		return s == ""
	}
	switch pattern[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if likeViaPattern(pattern[1:], s[i:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && likeViaPattern(pattern[1:], s[1:])
	case '\\':
		if len(pattern) >= 2 {
			return s != "" && s[0] == pattern[1] && likeViaPattern(pattern[2:], s[1:])
		}
		return s == "\\"
	default:
		return s != "" && s[0] == pattern[0] && likeViaPattern(pattern[1:], s[1:])
	}
}

// PolicyForURI resolves the policy covering a local URI: the first
// POLICY-REF (in document order) with a matching INCLUDE and no matching
// EXCLUDE wins. It returns the PolicyRef, or nil when no policy covers the
// URI.
func (rf *RefFile) PolicyForURI(uri string) *PolicyRef {
	for _, pr := range rf.PolicyRefs {
		included := false
		for _, p := range pr.Includes {
			if wildcardMatch(p, uri) {
				included = true
				break
			}
		}
		if !included {
			continue
		}
		excluded := false
		for _, p := range pr.Excludes {
			if wildcardMatch(p, uri) {
				excluded = true
				break
			}
		}
		if !excluded {
			return pr
		}
	}
	return nil
}

// PolicyForCookie resolves the policy covering a cookie by name.
func (rf *RefFile) PolicyForCookie(name string) *PolicyRef {
	for _, pr := range rf.PolicyRefs {
		included := false
		for _, p := range pr.CookieIncludes {
			if wildcardMatch(p, name) {
				included = true
				break
			}
		}
		if !included {
			continue
		}
		excluded := false
		for _, p := range pr.CookieExcludes {
			if wildcardMatch(p, name) {
				excluded = true
				break
			}
		}
		if !excluded {
			return pr
		}
	}
	return nil
}

// refDDL creates the Figure 16 tables. The Policyref table references the
// policy both by its about URI and by the policy_id resolved at install
// time against the policy store.
var refDDL = []string{
	`CREATE TABLE Meta (
		meta_id INTEGER NOT NULL,
		PRIMARY KEY (meta_id))`,
	`CREATE TABLE Policyref (
		meta_id INTEGER NOT NULL,
		policyref_id INTEGER NOT NULL,
		about VARCHAR(255) NOT NULL,
		policy_id INTEGER NOT NULL,
		PRIMARY KEY (meta_id, policyref_id))`,
	`CREATE TABLE Include (
		meta_id INTEGER NOT NULL,
		policyref_id INTEGER NOT NULL,
		include_id INTEGER NOT NULL,
		pattern VARCHAR(255) NOT NULL,
		PRIMARY KEY (meta_id, policyref_id, include_id))`,
	`CREATE INDEX ix_include_ref ON Include (meta_id, policyref_id)`,
	`CREATE TABLE Exclude (
		meta_id INTEGER NOT NULL,
		policyref_id INTEGER NOT NULL,
		exclude_id INTEGER NOT NULL,
		pattern VARCHAR(255) NOT NULL,
		PRIMARY KEY (meta_id, policyref_id, exclude_id))`,
	`CREATE INDEX ix_exclude_ref ON Exclude (meta_id, policyref_id)`,
	`CREATE TABLE Cookie_include (
		meta_id INTEGER NOT NULL,
		policyref_id INTEGER NOT NULL,
		cookie_include_id INTEGER NOT NULL,
		pattern VARCHAR(255) NOT NULL,
		PRIMARY KEY (meta_id, policyref_id, cookie_include_id))`,
	`CREATE TABLE Cookie_exclude (
		meta_id INTEGER NOT NULL,
		policyref_id INTEGER NOT NULL,
		cookie_exclude_id INTEGER NOT NULL,
		pattern VARCHAR(255) NOT NULL,
		PRIMARY KEY (meta_id, policyref_id, cookie_exclude_id))`,
}

// PolicyResolver maps a policy name (the fragment of a POLICY-REF's about
// URI) to its policy id in the policy store. Both shred stores implement
// it.
type PolicyResolver interface {
	PolicyID(name string) (int, error)
}

// Store holds reference files in the Figure 16 relational schema.
type Store struct {
	db     *reldb.DB
	nextID int
}

// refStmts is refDDL parsed once: a site creates the tables in a new
// database on every snapshot publish.
var refStmts = sync.OnceValues(func() ([]reldb.Statement, error) {
	return reldb.ParseAll(refDDL)
})

// NewStore creates the reference-file tables in db.
func NewStore(db *reldb.DB) (*Store, error) {
	ddl, err := refStmts()
	if err != nil {
		return nil, fmt.Errorf("reffile: creating schema: %w", err)
	}
	for _, stmt := range ddl {
		if _, err := db.ExecStmt(stmt); err != nil {
			return nil, fmt.Errorf("reffile: creating schema: %w", err)
		}
	}
	return &Store{db: db, nextID: 1}, nil
}

// Install stores a reference file, resolving each POLICY-REF's policy name
// against the given resolver, and returns the meta id. The rows go in as
// one bulk append per table.
func (s *Store) Install(rf *RefFile, resolver PolicyResolver) (int, error) {
	metaID := s.nextID
	s.nextID++
	meta := reldb.Int(int64(metaID))
	tables := []struct {
		name string
		rows [][]reldb.Value
	}{{"Meta", [][]reldb.Value{{meta}}}, {name: "Policyref"},
		// The pattern tables, in PolicyRef field order.
		{name: "Include"}, {name: "Exclude"}, {name: "Cookie_include"}, {name: "Cookie_exclude"}}
	for i, pr := range rf.PolicyRefs {
		policyID, err := resolver.PolicyID(pr.PolicyName())
		if err != nil {
			return 0, fmt.Errorf("reffile: POLICY-REF %s: %w", pr.About, err)
		}
		ref := reldb.Int(int64(i + 1))
		tables[1].rows = append(tables[1].rows, []reldb.Value{meta, ref, reldb.Str(pr.About), reldb.Int(int64(policyID))})
		for k, patterns := range [][]string{pr.Includes, pr.Excludes, pr.CookieIncludes, pr.CookieExcludes} {
			t := &tables[2+k]
			for j, p := range patterns {
				t.rows = append(t.rows, []reldb.Value{meta, ref, reldb.Int(int64(j + 1)), reldb.Str(WildcardToLike(p))})
			}
		}
	}
	for _, t := range tables {
		if len(t.rows) == 0 {
			continue
		}
		if _, err := s.db.InsertRows(t.name, t.rows); err != nil {
			return 0, err
		}
	}
	return metaID, nil
}

// sqlString quotes a string as a SQL literal.
func sqlString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// ApplicablePolicySubquery generates the applicablePolicy() subquery of the
// paper's translation algorithm (Figure 11, line 3): a SELECT over the
// reference-file tables returning the policy_id of the first POLICY-REF
// whose INCLUDE patterns cover the URI and whose EXCLUDE patterns do not.
// The caller embeds it as a derived table named ApplicablePolicy.
func ApplicablePolicySubquery(uri string) string {
	u := sqlString(uri)
	return `SELECT pr.policy_id AS policy_id FROM Policyref pr WHERE pr.policyref_id = (` +
		`SELECT MIN(pr2.policyref_id) FROM Policyref pr2 WHERE pr2.meta_id = pr.meta_id` +
		` AND EXISTS (SELECT * FROM Include i WHERE i.meta_id = pr2.meta_id AND i.policyref_id = pr2.policyref_id AND ` + u + ` LIKE i.pattern)` +
		` AND NOT EXISTS (SELECT * FROM Exclude e WHERE e.meta_id = pr2.meta_id AND e.policyref_id = pr2.policyref_id AND ` + u + ` LIKE e.pattern))`
}

// ApplicableCookiePolicySubquery is the cookie-policy variant, driven by
// COOKIE-INCLUDE/COOKIE-EXCLUDE patterns, used when checking compact-policy
// style cookie decisions server-side.
func ApplicableCookiePolicySubquery(cookieName string) string {
	u := sqlString(cookieName)
	return `SELECT pr.policy_id AS policy_id FROM Policyref pr WHERE pr.policyref_id = (` +
		`SELECT MIN(pr2.policyref_id) FROM Policyref pr2 WHERE pr2.meta_id = pr.meta_id` +
		` AND EXISTS (SELECT * FROM Cookie_include i WHERE i.meta_id = pr2.meta_id AND i.policyref_id = pr2.policyref_id AND ` + u + ` LIKE i.pattern)` +
		` AND NOT EXISTS (SELECT * FROM Cookie_exclude e WHERE e.meta_id = pr2.meta_id AND e.policyref_id = pr2.policyref_id AND ` + u + ` LIKE e.pattern))`
}

// ResolveURI runs the applicable-policy subquery against the store and
// returns the covering policy id, or (0, false) when no policy covers the
// URI.
func (s *Store) ResolveURI(uri string) (int, bool, error) {
	rows, err := s.db.Query(ApplicablePolicySubquery(uri))
	if err != nil {
		return 0, false, err
	}
	if len(rows.Data) == 0 {
		return 0, false, nil
	}
	n, _ := rows.Data[0][0].AsInt()
	return int(n), true, nil
}

// ResolveCookie is the cookie-name variant of ResolveURI.
func (s *Store) ResolveCookie(name string) (int, bool, error) {
	rows, err := s.db.Query(ApplicableCookiePolicySubquery(name))
	if err != nil {
		return 0, false, err
	}
	if len(rows.Data) == 0 {
		return 0, false, nil
	}
	n, _ := rows.Data[0][0].AsInt()
	return int(n), true, nil
}
