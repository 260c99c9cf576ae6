package registry

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"p3pdb/internal/appel"
	"p3pdb/internal/core"
	"p3pdb/internal/p3p"
	"p3pdb/internal/workload"
)

// writeSiteDir materializes one tenant directory: the volga paper policy
// plus a reference file covering the whole URI space.
func writeSiteDir(t *testing.T, root, name string) {
	t.Helper()
	dir := filepath.Join(root, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "policies.xml"), p3p.VolgaPolicyXML)
	writeFile(t, filepath.Join(dir, "reference.xml"),
		`<META xmlns="http://www.w3.org/2002/01/P3Pv1">
		  <POLICY-REFERENCES>
		    <POLICY-REF about="/P3P/Policies.xml#volga"><INCLUDE>/*</INCLUDE></POLICY-REF>
		  </POLICY-REFERENCES></META>`)
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func newDirRegistry(t *testing.T, root string, maxSites int) *Registry {
	t.Helper()
	r, err := New(Options{Dir: root, MaxSites: maxSites})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLazyLoadAndMatch(t *testing.T) {
	root := t.TempDir()
	writeSiteDir(t, root, "example.com")
	r := newDirRegistry(t, root, 0)
	if !r.Ready() {
		t.Fatal("registry not ready")
	}

	site, err := r.Get("example.com")
	if err != nil {
		t.Fatal(err)
	}
	if names := site.PolicyNames(); len(names) != 1 || names[0] != "volga" {
		t.Fatalf("policies = %v", names)
	}
	name, err := site.PolicyForURI("/books/1")
	if err != nil {
		t.Fatal(err)
	}
	d, err := site.MatchPolicy(appel.JanePreferenceXML, name, core.EngineSQL)
	if err != nil || d.Behavior != "request" {
		t.Fatalf("match through lazily loaded site: %+v %v", d, err)
	}

	again, err := r.Get("example.com")
	if err != nil {
		t.Fatal(err)
	}
	if again != site {
		t.Error("second Get returned a different site instance")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestGetNormalizesHostNames(t *testing.T) {
	root := t.TempDir()
	writeSiteDir(t, root, "example.com")
	r := newDirRegistry(t, root, 0)

	site, err := r.Get("example.com")
	if err != nil {
		t.Fatal(err)
	}
	// A raw Host header — upper case, with port — reaches the same tenant.
	viaHost, err := r.Get("EXAMPLE.COM:8080")
	if err != nil {
		t.Fatal(err)
	}
	if viaHost != site {
		t.Error("host-header form resolved to a different site")
	}
}

func TestUnknownSite(t *testing.T) {
	r := newDirRegistry(t, t.TempDir(), 0)
	if _, err := r.Get("nobody.example"); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("err = %v, want ErrUnknownSite", err)
	}
	// No backing dir at all: every name is unknown rather than an IO error.
	bare, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.Get("anything"); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("bare registry err = %v, want ErrUnknownSite", err)
	}
}

func TestNameValidationBlocksTraversal(t *testing.T) {
	root := t.TempDir()
	// A directory outside the layout that a traversal would reach.
	outside := filepath.Join(root, "outside")
	sites := filepath.Join(root, "sites")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	writeSiteDir(t, root, "sites/good.example")
	r := newDirRegistry(t, sites, 0)

	for _, name := range []string{"", ".", "..", "../outside", "a/b", "a..b", ".hidden", "bad name", "semi;colon"} {
		if _, err := r.Get(name); err == nil {
			t.Errorf("Get(%q) should be rejected", name)
		}
		if ValidName(name) {
			t.Errorf("ValidName(%q) = true", name)
		}
	}
	if !ValidName("good.example") || !ValidName("a-b_c.d2") {
		t.Error("legitimate names rejected")
	}
	if _, err := r.Get("good.example"); err != nil {
		t.Errorf("valid tenant: %v", err)
	}
}

func TestLRUEviction(t *testing.T) {
	root := t.TempDir()
	writeSiteDir(t, root, "a.example")
	writeSiteDir(t, root, "b.example")
	r := newDirRegistry(t, root, 1)

	siteA, err := r.Get("a.example")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("b.example"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("a.example"); ok {
		t.Error("a.example should have been evicted (MaxSites=1)")
	}
	if _, ok := r.Lookup("b.example"); !ok {
		t.Error("b.example should be resident")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}

	// An evicted tenant is not gone: the next Get reloads it from disk
	// as a fresh site.
	reloaded, err := r.Get("a.example")
	if err != nil {
		t.Fatal(err)
	}
	if reloaded == siteA {
		t.Error("reload after eviction returned the evicted instance")
	}
	if names := reloaded.PolicyNames(); len(names) != 1 || names[0] != "volga" {
		t.Errorf("reloaded policies = %v", names)
	}
}

func TestReloadSwapsPoliciesInPlace(t *testing.T) {
	root := t.TempDir()
	writeSiteDir(t, root, "example.com")
	r := newDirRegistry(t, root, 0)
	site, err := r.Get("example.com")
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the tenant directory with a different policy set.
	ds := workload.Generate(7)
	pol := ds.Policies[0]
	writeFile(t, filepath.Join(root, "example.com", "policies.xml"), pol.String())
	if err := os.Remove(filepath.Join(root, "example.com", "reference.xml")); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload("example.com"); err != nil {
		t.Fatal(err)
	}

	// Same site instance, new policy set: in-flight handles stay valid.
	after, ok := r.Lookup("example.com")
	if !ok || after != site {
		t.Fatal("Reload must keep the same *Site")
	}
	if names := site.PolicyNames(); len(names) != 1 || names[0] != pol.Name {
		t.Errorf("policies after reload = %v, want [%s]", names, pol.Name)
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	root := t.TempDir()
	writeSiteDir(t, root, "example.com")
	r := newDirRegistry(t, root, 0)
	site, err := r.Get("example.com")
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(root, "example.com", "policies.xml"), "<POLICY not xml")
	if err := r.Reload("example.com"); err == nil {
		t.Fatal("reload of a broken directory must fail")
	}
	// The tenant still serves its previous snapshot.
	if names := site.PolicyNames(); len(names) != 1 || names[0] != "volga" {
		t.Errorf("policies after failed reload = %v", names)
	}
	if _, err := site.MatchPolicy(appel.JanePreferenceXML, "volga", core.EngineSQL); err != nil {
		t.Errorf("match after failed reload: %v", err)
	}
}

func TestReloadAllDropsVanishedTenants(t *testing.T) {
	root := t.TempDir()
	writeSiteDir(t, root, "stay.example")
	writeSiteDir(t, root, "gone.example")
	r := newDirRegistry(t, root, 0)
	if _, err := r.Get("stay.example"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("gone.example"); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, "gone.example")); err != nil {
		t.Fatal(err)
	}
	if err := r.ReloadAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Lookup("gone.example"); ok {
		t.Error("vanished tenant should be dropped by ReloadAll")
	}
	if _, ok := r.Lookup("stay.example"); !ok {
		t.Error("surviving tenant should stay resident")
	}
}

func TestCreateAndRemoveDynamicTenant(t *testing.T) {
	r, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	site, err := r.Create("dyn.example")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := site.InstallPolicyXML(p3p.VolgaPolicyXML); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get("dyn.example")
	if err != nil || got != site {
		t.Fatalf("Get after Create: %v", err)
	}
	if _, err := r.Create("dyn.example"); err == nil {
		t.Error("duplicate Create should fail")
	}
	if err := r.Remove("dyn.example"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("dyn.example"); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("after Remove: %v, want ErrUnknownSite", err)
	}
	if err := r.Remove("dyn.example"); !errors.Is(err, ErrUnknownSite) {
		t.Errorf("double Remove: %v, want ErrUnknownSite", err)
	}
}

func TestNamesUnionsDiskAndResident(t *testing.T) {
	root := t.TempDir()
	writeSiteDir(t, root, "disk.example")
	r := newDirRegistry(t, root, 0)
	if _, err := r.Create("dyn.example"); err != nil {
		t.Fatal(err)
	}
	names := r.Names()
	want := []string{"disk.example", "dyn.example"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("Names = %v, want %v", names, want)
	}
}

func TestConcurrentGetLoadsOnce(t *testing.T) {
	root := t.TempDir()
	writeSiteDir(t, root, "example.com")
	r := newDirRegistry(t, root, 0)

	const n = 16
	sites := make([]*core.Site, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := r.Get("example.com")
			if err != nil {
				t.Error(err)
				return
			}
			sites[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if sites[i] != sites[0] {
			t.Fatal("concurrent Gets observed different site instances")
		}
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}
