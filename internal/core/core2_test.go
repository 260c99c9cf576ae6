package core

import (
	"strings"
	"testing"

	"p3pdb/internal/appel"
)

func TestEngineNames(t *testing.T) {
	cases := map[string]Engine{
		"native": EngineNative, "APPEL": EngineNative,
		"sql":    EngineSQL,
		"xtable": EngineXTable, "xquery-sql": EngineXTable,
		"xquery": EngineXQuery, "XQUERY-NATIVE": EngineXQuery,
	}
	for name, want := range cases {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("unknown engine should error")
	}
	for _, e := range Engines {
		if e.String() == "" || strings.HasPrefix(e.String(), "Engine(") {
			t.Errorf("String for %d: %q", int(e), e.String())
		}
		back, err := ParseEngine(e.ShortName())
		if err != nil || back != e {
			t.Errorf("ShortName round trip for %v: %v %v", e, back, err)
		}
	}
	if Engine(99).String() == "" || Engine(99).ShortName() != "unknown" {
		t.Error("out-of-range engine formatting")
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	s := siteWithVolga(t)
	if _, err := s.MatchPolicy(appel.JanePreferenceXML, "volga", Engine(99)); err == nil {
		t.Error("unknown engine should error")
	}
}

func TestCompactAndReferenceAccessors(t *testing.T) {
	s := siteWithVolga(t)
	cp, err := s.CompactPolicy("volga")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CUR", "CONi", "STP"} {
		if !strings.Contains(cp, want) {
			t.Errorf("compact missing %q: %s", want, cp)
		}
	}
	if _, err := s.CompactPolicy("ghost"); err == nil {
		t.Error("missing policy compact should error")
	}
	ref, err := s.ReferenceFileXML()
	if err != nil || !strings.Contains(ref, "POLICY-REF") {
		t.Errorf("reference: %v", err)
	}
	empty, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.ReferenceFileXML(); err == nil {
		t.Error("no reference file should error")
	}
	if s.DB() == nil {
		t.Error("database accessors returned nil")
	}
}

func TestMatchCookieThroughCore(t *testing.T) {
	s, err := NewSite()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallPolicyXML(`<POLICY name="cookies"><STATEMENT>
	  <PURPOSE><telemarketing/></PURPOSE><RECIPIENT><unrelated/></RECIPIENT>
	  <RETENTION><indefinitely/></RETENTION>
	  <DATA-GROUP><DATA ref="#dynamic.cookies"><CATEGORIES><uniqueid/></CATEGORIES></DATA></DATA-GROUP>
	</STATEMENT></POLICY>`); err != nil {
		t.Fatal(err)
	}
	matchCookie := func(cookie string, engine Engine) (Decision, error) {
		name, err := s.PolicyForCookie(cookie)
		if err != nil {
			return Decision{}, err
		}
		return s.MatchPolicy(appel.JanePreferenceXML, name, engine)
	}
	// Cookie matching before a reference file is installed fails.
	if _, err := matchCookie("uid", EngineSQL); err == nil {
		t.Error("no reference file should error")
	}
	if err := s.InstallReferenceFileXML(`<META><POLICY-REFERENCES>
	  <POLICY-REF about="#cookies"><INCLUDE>/*</INCLUDE><COOKIE-INCLUDE name="uid*"/></POLICY-REF>
	</POLICY-REFERENCES></META>`); err != nil {
		t.Fatal(err)
	}
	for _, engine := range Engines {
		d, err := matchCookie("uid_1", engine)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if d.Behavior != "block" || d.PolicyName != "cookies" {
			t.Errorf("%v: %+v", engine, d)
		}
	}
	if _, err := matchCookie("other", EngineSQL); err == nil {
		t.Error("uncovered cookie should error")
	}
	name, err := s.PolicyForCookie("uid_9")
	if err != nil || name != "cookies" {
		t.Errorf("PolicyForCookie: %q %v", name, err)
	}
}

func TestReferenceFileNamingUninstalledPolicyCookie(t *testing.T) {
	s := siteWithVolga(t)
	// Volga's reference file has no cookie patterns.
	if _, err := s.PolicyForCookie("any"); err == nil {
		t.Error("cookie without patterns should error")
	}
}
