package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"reflect"
	"sync"

	"t3sim/internal/memory"
	"t3sim/internal/store"
	"t3sim/internal/t3core"
)

// This file derives the code-identity version string that gates the
// persistent result store. Two builds share cache entries only when both
// components agree:
//
//   - the build identity (VCS revision via runtime/debug.ReadBuildInfo, so
//     editing any source and rebuilding invalidates the cache wholesale;
//     test binaries fall back to a deterministic constant), and
//   - a structural fingerprint of every persisted result type and every
//     hashed option type, walked by reflection. This is the safety net for
//     builds the VCS stamp cannot tell apart (dirty worktrees, `go test`
//     binaries): if a result struct gains, loses or retypes a field, gob
//     would happily decode an old payload into the new struct and zero-fill
//     the difference — the fingerprint changes instead, and every stale
//     entry becomes invisible.
//
// Nothing here is hand-bumped; both components are derived from the binary.

// storedTypes are the result types the persistent tier encodes (one per
// MemoCache key space) plus the option types whose reflection walk defines
// the canonical keys. Order matters only for fingerprint stability within
// one build.
var storedTypes = []reflect.Type{
	reflect.TypeOf(t3core.FusedResult{}),
	reflect.TypeOf(t3core.MultiDeviceResult{}),
	reflect.TypeOf(SublayerResult{}),
	reflect.TypeOf(CoarseOverlapResult{}),
	reflect.TypeOf(LayerValidationResult{}),
	reflect.TypeOf(Fig6Result{}),
	reflect.TypeOf(Fig14Result{}),
	reflect.TypeOf(Fig17Result{}),
	reflect.TypeOf(GenerationResult{}),
	reflect.TypeOf(TopoSweepResult{}),
	reflect.TypeOf(ServeSweepResult{}),
	reflect.TypeOf(ServeTenantsResult{}),
	reflect.TypeOf(t3core.FusedOptions{}),
	reflect.TypeOf(memory.Config{}),
	reflect.TypeOf(Setup{}),
}

var storeVersionOnce = sync.OnceValue(func() string {
	h := sha256.New()
	seen := map[reflect.Type]bool{}
	for _, t := range storedTypes {
		writeTypeSignature(h, t, seen)
	}
	schema := hex.EncodeToString(h.Sum(nil))[:16]
	return store.BuildIdentity() + "/" + schema
})

// StoreVersion returns this build's store version string: build identity
// plus result/option schema fingerprint.
func StoreVersion() string {
	return storeVersionOnce()
}

// writeTypeSignature folds a type's structure — kind, name, and for structs
// every exported field's name and type, recursively — into h.
func writeTypeSignature(h hash.Hash, t reflect.Type, seen map[reflect.Type]bool) {
	io.WriteString(h, t.String())
	io.WriteString(h, "|")
	io.WriteString(h, t.Kind().String())
	io.WriteString(h, ";")
	if seen[t] {
		return
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Struct:
		fmt.Fprintf(h, "{%d:", t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			io.WriteString(h, f.Name)
			io.WriteString(h, "=")
			writeTypeSignature(h, f.Type, seen)
		}
		io.WriteString(h, "}")
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Map, reflect.Chan:
		if t.Kind() == reflect.Map {
			writeTypeSignature(h, t.Key(), seen)
		}
		if t.Kind() == reflect.Array {
			fmt.Fprintf(h, "[%d]", t.Len())
		}
		writeTypeSignature(h, t.Elem(), seen)
	}
}

// OpenStore opens dir as a persistent result store under this build's
// version. Attach the result to a MemoCache via AttachStore.
func OpenStore(dir string, mode store.Mode) (*store.Store, error) {
	return store.Open(dir, store.Options{Version: StoreVersion(), Mode: mode})
}

// ParseStoreMode parses the CLIs' -cache-mode value: "rw" (read-write),
// "ro" (read-only) or "off" (ignore the cache directory entirely).
func ParseStoreMode(s string) (mode store.Mode, off bool, err error) {
	switch s {
	case "rw":
		return store.ReadWrite, false, nil
	case "ro":
		return store.ReadOnly, false, nil
	case "off":
		return 0, true, nil
	}
	return 0, false, fmt.Errorf("cache mode %q: want rw, ro or off", s)
}
