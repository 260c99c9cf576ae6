package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"p3pdb/internal/workload"
)

// defaultSeed is the corpus seed whose generated corpus is pinned by
// corpusSHA256. Every run regenerates this corpus and compares: if
// internal/workload starts producing different bytes, numbers from
// before and after describe different inputs, so the command refuses to
// report at all.
//
// The driver's --seed varies the traffic (which tenant, page, level and
// cookie each request draws), not the corpus: how much a match costs
// depends on the generated policies' content (matchall_sql's CPU per
// operation differs by 1.8x between corpus seeds 1 and 2), which is an
// input difference no bound on run-to-run spread could absorb.
// -corpus-seed re-checks a claim on policies never seen before.
const (
	defaultSeed  = 1
	corpusSHA256 = "b6a12366f612790f6dafa0a28931959b82a0f36ac0de450216829f0591dd5d78"
)

const (
	hotTenants    = 4
	residentPrefs = 50
	cookieShare   = 0.25
	zipfS         = 1.1
	// variantBSeedOffset separates the second body variant of each
	// draft the churn writer installs from the tenant's own policies.
	variantBSeedOffset = 1000
	// draftName is the policy the churn writer re-installs. POST
	// /policies refuses an installed name, so a re-install over the HTTP
	// API is DELETE then POST; done to a policy the reference file
	// serves, reads of its pages would fail between the two. The draft
	// is a policy no reference-file entry points at: every write still
	// parses, shreds, rebuilds, pre-warms, logs and publishes, and every
	// read keeps one right answer.
	draftName = "draft"
)

// attitudes are the user-agent settings GET /check accepts by name,
// with the visitor mix and the JRC level each resolves to on the
// server (internal/server/check.go).
var attitudes = []struct {
	name  string
	share float64
	level string
}{
	{"apathetic", 0.60, "Very Low"},
	{"mild", 0.25, "Low"},
	{"paranoid", 0.15, "High"},
}

// uniqueLevels is the level mix of never-repeated preference bodies.
var uniqueLevels = []struct {
	level string
	share float64
}{
	{"High", 0.50},
	{"Very High", 0.25},
	{"Medium", 0.25},
}

// tenant is one hosted site's generated inputs.
type tenant struct {
	name      string
	policies  []string // policy names, in install order
	policyXML [][]byte // documents, parallel to policies
	refXML    []byte
	uris      []string
	cookies   []string
}

// corpus is everything generated from one seed: the tenants and the
// preference texts. The server receives only what is generated here.
type corpus struct {
	seed    int64 // what the documents were generated from
	traffic int64 // seed of the traffic samplers; not part of the digest
	tenants []tenant
	levels  []workload.Preference // the five JRC levels, workload.Levels order
	// resident are the texts registered through POST /prefs on churn,
	// and residentLevel the JRC level each is a variant of.
	resident      [][]byte
	residentLevel []int
	// drafts are the bodies the churn writer installs under draftName in
	// turn: each of tenant 0's policies, then a second variant of each.
	drafts [][]byte
}

func levelIndex(name string) int {
	for i, l := range workload.Levels {
		if l == name {
			return i
		}
	}
	panic("bench: unknown level " + name)
}

func generateCorpus(seed int64) *corpus {
	c := &corpus{seed: seed, levels: workload.JRCPreferences()}
	for i := 0; i < hotTenants; i++ {
		d := workload.Generate(seed + int64(i))
		t := tenant{name: fmt.Sprintf("t%d.bench", i), refXML: []byte(d.RefFile.String())}
		for _, pol := range d.Policies {
			t.policies = append(t.policies, pol.Name)
			t.policyXML = append(t.policyXML, []byte(d.PolicyXML[pol.Name]))
			t.uris = append(t.uris, d.URIFor(pol.Name))
			t.cookies = append(t.cookies, d.CookieFor(pol.Name))
		}
		c.tenants = append(c.tenants, t)
	}
	for _, d := range []*workload.Dataset{workload.Generate(seed), workload.Generate(seed + variantBSeedOffset)} {
		for _, pol := range d.Policies {
			old := ` name="` + pol.Name + `"`
			doc := d.PolicyXML[pol.Name]
			if strings.Count(doc, old) != 1 {
				panic("bench: generated policy does not carry its name attribute exactly once")
			}
			c.drafts = append(c.drafts, []byte(strings.Replace(doc, old, ` name="`+draftName+`"`, 1)))
		}
	}
	// Resident preferences: distinct texts over the same level mix as
	// the unique bodies (two High, one Very High, one Medium per four).
	// Preference i is variant i of its level, so no two share a text.
	cycle := []string{"High", "High", "Very High", "Medium"}
	variants := map[string][]workload.Preference{}
	for i := 0; i < residentPrefs; i++ {
		level := cycle[i%len(cycle)]
		if variants[level] == nil {
			variants[level] = workload.PreferenceVariants(level, residentPrefs)
		}
		c.resident = append(c.resident, []byte(variants[level][i].XML))
		c.residentLevel = append(c.residentLevel, levelIndex(level))
	}
	return c
}

// digest hashes every generated document in a fixed order.
func (c *corpus) digest() string {
	h := sha256.New()
	put := func(b []byte) {
		h.Write([]byte(strconv.Itoa(len(b))))
		h.Write([]byte{0})
		h.Write(b)
	}
	for _, t := range c.tenants {
		put([]byte(t.name))
		for i := range t.policies {
			put(t.policyXML[i])
		}
		put(t.refXML)
	}
	for _, p := range c.levels {
		put([]byte(p.XML))
	}
	for _, p := range c.resident {
		put(p)
	}
	for _, p := range c.drafts {
		put(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedCorpus generates the default-seed corpus and requires it to be
// the one the benchmark was defined on.
func pinnedCorpus() (*corpus, error) {
	c := generateCorpus(defaultSeed)
	if got := c.digest(); got != corpusSHA256 {
		return nil, fmt.Errorf("internal/workload no longer generates the corpus this benchmark was defined on "+
			"(seed %d: sha256 %s, pinned %s): earlier results are not a valid baseline for this tree; "+
			"re-pin corpusSHA256 in bench/corpus.go in a change of its own and measure the baseline again",
			defaultSeed, got, corpusSHA256)
	}
	return c, nil
}

type reqKind uint8

const (
	kindCheck reqKind = iota
	kindMatchAll
)

// request is one pre-generated request together with what decides
// whether its answer is right. The body is head, or head+N+tail with a
// never-repeated N when unique is set; both pieces are built before the
// window and only copied into the connection's buffer inside it.
type request struct {
	kind         reqKind
	method, path string
	head, tail   []byte
	unique       bool
	tenant       int
	urlPol       int // policy index the url names; -1 when absent
	cookiePol    int // policy index the cookie names; -1 when absent
	level        int // JRC level index the preference is a variant of
}

// uniqueBody splits a level's variant text around its variant number,
// so that head+N+tail is byte-identical to what
// workload.PreferenceVariants numbers N.
func uniqueBody(level string) (head, tail []byte) {
	xml := workload.PreferenceVariants(level, 1)[0].XML
	const mark = "variant 0"
	i := strings.LastIndex(xml, mark)
	if i < 0 {
		panic("bench: PreferenceVariants no longer numbers its variants")
	}
	return []byte(xml[:i+len(mark)-1]), []byte(xml[i+len(mark):])
}

func checkPath(t *tenant, pol int, withURL, withCookie bool, level string) string {
	q := url.Values{}
	if withURL {
		q.Set("url", t.uris[pol])
	}
	if withCookie {
		q.Set("cookie", t.cookies[pol])
	}
	if level != "" {
		q.Set("level", level)
	}
	return "/sites/" + t.name + "/check?" + q.Encode()
}

// sampler is the seeded traffic model of one connection.
type sampler struct {
	rng     *rand.Rand
	page    *rand.Zipf
	pref    *rand.Zipf
	tenants int // tenants the workload spreads its requests over
	prefs   int // resident preferences to choose from
}

// newSampler returns the traffic model of one stream of workload w
// over corpus c: connection 0 or 1 of a window, or the warm-up.
func newSampler(c *corpus, w *workloadSpec, stream int) *sampler {
	rng := rand.New(rand.NewSource(c.traffic*7919 + int64(stream)))
	return &sampler{
		rng:     rng,
		page:    rand.NewZipf(rng, zipfS, 1, nPolicies-1),
		pref:    rand.NewZipf(rng, zipfS, 1, uint64(len(c.resident)-1)),
		tenants: w.tenantsOf(c),
		prefs:   len(c.resident),
	}
}

// pick draws an index from cumulative shares.
func (s *sampler) pick(shares ...float64) int {
	u, acc := s.rng.Float64(), 0.0
	for i, sh := range shares {
		acc += sh
		if u < acc {
			return i
		}
	}
	return len(shares) - 1
}

// workloadSpec is one traffic mix: its request table, how a connection
// draws from it, and what set-up it needs.
type workloadSpec struct {
	name     string
	tenants  int  // tenants seeded (policies + reference file each)
	resident bool // register the resident preferences on tenant 0
	writer   bool // connection 1 is the paced writer
	warmOps  int  // fixed warm-up op count per connection
	traceOps int  // ops the traced pass replays
	table    func(c *corpus) []request
	draw     func(s *sampler) int
}

// tenantsOf is how many of the corpus's tenants the workload uses (the
// smoke test's corpus has fewer than the workload asks for).
func (w *workloadSpec) tenantsOf(c *corpus) int { return min(w.tenants, len(c.tenants)) }

var workloads = []*workloadSpec{checkHot, checkUnique, matchAllSQL, churn}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const nPolicies = 29

// hotIndex addresses the named-level GET table of one or more tenants.
func hotIndex(t, pol, att int, cookie bool) int {
	i := ((t*nPolicies+pol)*len(attitudes) + att) * 2
	if cookie {
		i++
	}
	return i
}

func hotTable(c *corpus, tenants int) []request {
	var out []request
	for ti := 0; ti < tenants; ti++ {
		t := &c.tenants[ti]
		for p := range t.policies {
			for _, a := range attitudes {
				for _, cookie := range []bool{false, true} {
					r := request{kind: kindCheck, method: "GET", tenant: ti, urlPol: p, cookiePol: -1,
						level: levelIndex(a.level), path: checkPath(t, p, true, cookie, a.name)}
					if cookie {
						r.cookiePol = p
					}
					out = append(out, r)
				}
			}
		}
	}
	return out
}

func (s *sampler) drawHot() int {
	t := s.rng.Intn(s.tenants)
	pol := int(s.page.Uint64())
	att := s.pick(attitudes[0].share, attitudes[1].share, attitudes[2].share)
	return hotIndex(t, pol, att, s.rng.Float64() < cookieShare)
}

var checkHot = &workloadSpec{
	name: "check_hot", tenants: hotTenants, warmOps: 1500, traceOps: 3000,
	table: func(c *corpus) []request { return hotTable(c, len(c.tenants)) },
	draw:  (*sampler).drawHot,
}

var checkUnique = &workloadSpec{
	name: "check_unique", tenants: hotTenants, warmOps: 300, traceOps: 2000,
	table: func(c *corpus) []request {
		var out []request
		for ti := range c.tenants {
			t := &c.tenants[ti]
			for p := range t.policies {
				for _, u := range uniqueLevels {
					head, tail := uniqueBody(u.level)
					for _, cookie := range []bool{false, true} {
						// One target per request, the URL or the
						// cookie: a second target would find the first
						// one's conversion and decision in the caches.
						r := request{kind: kindCheck, method: "POST", tenant: ti, urlPol: p, cookiePol: -1,
							level: levelIndex(u.level), head: head, tail: tail, unique: true,
							path: checkPath(t, p, !cookie, cookie, "")}
						if cookie {
							r.urlPol, r.cookiePol = -1, p
						}
						out = append(out, r)
					}
				}
			}
		}
		return out
	},
	draw: func(s *sampler) int {
		t := s.rng.Intn(s.tenants)
		pol := int(s.page.Uint64())
		lv := s.pick(uniqueLevels[0].share, uniqueLevels[1].share, uniqueLevels[2].share)
		i := ((t*nPolicies+pol)*len(uniqueLevels) + lv) * 2
		if s.rng.Float64() < cookieShare {
			i++
		}
		return i
	},
}

var matchAllSQL = &workloadSpec{
	name: "matchall_sql", tenants: 1, warmOps: 40, traceOps: 500,
	table: func(c *corpus) []request {
		var out []request
		for _, level := range []string{"High", "Very High"} {
			head, tail := uniqueBody(level)
			out = append(out, request{kind: kindMatchAll, method: "POST", urlPol: -1, cookiePol: -1,
				level: levelIndex(level), head: head, tail: tail, unique: true,
				path: "/sites/" + c.tenants[0].name + "/matchall?engine=sql"})
		}
		return out
	},
	draw: func(s *sampler) int { return s.rng.Intn(2) },
}

// churn's reader table is the one-tenant named-level table followed by
// POST /check with each resident preference against each page.
var churn = &workloadSpec{
	name: "churn", tenants: 1, resident: true, writer: true, warmOps: 1000, traceOps: 1500,
	table: func(c *corpus) []request {
		out := hotTable(c, 1)
		t := &c.tenants[0]
		for p := range t.policies {
			for i, body := range c.resident {
				for _, cookie := range []bool{false, true} {
					r := request{kind: kindCheck, method: "POST", urlPol: p, cookiePol: -1,
						level: c.residentLevel[i], head: body, path: checkPath(t, p, true, cookie, "")}
					if cookie {
						r.cookiePol = p
					}
					out = append(out, r)
				}
			}
		}
		return out
	},
	draw: func(s *sampler) int {
		if s.rng.Intn(2) == 0 {
			return s.drawHot()
		}
		pol := int(s.page.Uint64())
		pref := int(s.pref.Uint64())
		i := hotIndex(1, 0, 0, false) + (pol*s.prefs+pref)*2
		if s.rng.Float64() < cookieShare {
			i++
		}
		return i
	},
}
