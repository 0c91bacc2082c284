package testutil

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// JSONKeys returns the sorted set of key paths in a JSON document: object
// members as "a.b", array elements as "a[]". It is what a wire-protocol
// golden pins — the field names a client may depend on, not the values.
func JSONKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JSONKeys: %v", err)
	}
	var keys []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), child)
			}
			if len(v) > 0 {
				return
			}
		case []any:
			for _, child := range v {
				walk(path+"[]", child)
			}
			if len(v) > 0 {
				return
			}
		}
		keys = append(keys, path) // a leaf, or an empty container
	}
	walk("", doc)
	slices.Sort(keys)
	return slices.Compact(keys)
}
