package main

import (
	"maps"
	"testing"

	"rescon/internal/rc"
)

// FuzzTenantFlag: of two -tenant declarations, tenantFlags.Set accepts
// only a non-empty name, a limit in [0,1] and a name not yet declared; a
// rejected one changes nothing, an accepted one adds one tenant and
// changes no other, and rc.New builds every accepted tenant under a
// root, as run does. The corpus under testdata/fuzz holds the parser's
// edge cases: hex and negative-zero limits, infinities, NaN, exponents
// out of range, an empty name, a second '=' and a redeclaration.
func FuzzTenantFlag(f *testing.F) {
	f.Add("gold=0.6", "bronze=0.1")
	f.Fuzz(func(t *testing.T, a, b string) {
		tf := tenantFlags{}
		for _, s := range []string{a, b} {
			before := maps.Clone(tf)
			if err := tf.Set(s); err != nil {
				if !maps.Equal(tf, before) {
					t.Fatalf("rejected Set(%q) changed the tenants from %v to %v", s, before, tf)
				}
				continue
			}
			if len(tf) != len(before)+1 {
				t.Fatalf("Set(%q) redeclared a tenant: %v, then %v", s, before, tf)
			}
			for name, limit := range before {
				if tf[name] != limit {
					t.Fatalf("Set(%q) changed tenant %q from %v to %v", s, name, limit, tf[name])
				}
			}
		}
		root := rc.MustNew(nil, rc.FixedShare, "rcserve", rc.Attributes{})
		for name, limit := range tf {
			if name == "" {
				t.Fatalf("accepted an empty name from %q, %q", a, b)
			}
			if !(limit >= 0 && limit <= 1) {
				t.Fatalf("accepted limit %v for %q", limit, name)
			}
			if _, err := rc.New(root, rc.FixedShare, name, rc.Attributes{Limit: limit}); err != nil {
				t.Fatalf("rc.New rejects accepted tenant %q=%v: %v", name, limit, err)
			}
		}
	})
}
