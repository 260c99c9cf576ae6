package xmlstore

import (
	"reflect"
	"testing"

	"p3pdb/internal/xmldom"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if err := s.PutXML("a", `<A x="1"/>`); err != nil {
		t.Fatal(err)
	}
	doc, err := s.Get("a")
	if err != nil || doc.Name != "A" {
		t.Fatalf("Get: %v %v", doc, err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Error("missing doc should error")
	}
	s.Delete("a")
	if _, err := s.Get("a"); err == nil {
		t.Error("deleted doc should be gone")
	}
	s.Delete("a") // no-op
}

func TestPutClones(t *testing.T) {
	s := New()
	n := xmldom.New("ROOT")
	s.Put("d", n)
	n.SetAttr("mutated", "yes")
	got, err := s.Get("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Attr("mutated"); ok {
		t.Error("store shares storage with caller")
	}
}

func TestPutSharedKeepsTree(t *testing.T) {
	s := New()
	n := xmldom.New("ROOT")
	s.PutShared("d", n)
	if got, err := s.Get("d"); err != nil || got != n {
		t.Fatalf("PutShared stored a copy: %p vs %p, %v", got, n, err)
	}
}

func TestPutXMLRejectsBadInput(t *testing.T) {
	s := New()
	if err := s.PutXML("bad", "<unclosed"); err == nil {
		t.Error("bad XML should be rejected")
	}
	if s.Len() != 0 {
		t.Error("failed put should not store")
	}
}

func TestNamesAndLen(t *testing.T) {
	s := New()
	_ = s.PutXML("b", `<B/>`)
	_ = s.PutXML("a", `<A/>`)
	if got := s.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names = %v", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestResolver(t *testing.T) {
	s := New()
	_ = s.PutXML("policy:x", `<POLICY/>`)
	r := s.Resolver(map[string]string{"applicable-policy": "policy:x"})
	doc, err := r("applicable-policy")
	if err != nil || doc.Name != "POLICY" {
		t.Errorf("alias: %v %v", doc, err)
	}
	doc, err = r("policy:x")
	if err != nil || doc.Name != "POLICY" {
		t.Errorf("direct: %v %v", doc, err)
	}
	if _, err := r("nope"); err == nil {
		t.Error("unknown name should error")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	done := make(chan bool, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			for j := 0; j < 50; j++ {
				name := string(rune('a' + i))
				_ = s.PutXML(name, `<D/>`)
				_, _ = s.Get(name)
				_ = s.Names()
			}
			done <- true
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
