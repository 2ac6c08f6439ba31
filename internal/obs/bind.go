package obs

import (
	"reflect"
	"time"
	"unicode"
)

// Struct binding: publish every exported numeric/bool field of a stats
// struct as a gauge named prefix_field_name (snake_case), recursing into
// nested structs. This is what keeps /status and /metrics in lockstep with
// the stats structs automatically — adding a counter to leopard.Node.Stats
// or transport.StreamStats surfaces it on both endpoints with no hand edits.
//
// time.Duration fields are published in seconds with a _seconds suffix.
// Array/slice/map/string fields are skipped.

// SetStruct binds v's fields into r (creating gauges on first use) and sets
// their current values. v may be a struct or a pointer to one; anything
// else is ignored.
func (r *Registry) SetStruct(prefix string, v any) {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return
		}
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return
	}
	r.setStructValue(prefix, rv)
}

var durationType = reflect.TypeOf(time.Duration(0))

func (r *Registry) setStructValue(prefix string, rv reflect.Value) {
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		fv := rv.Field(i)
		name := prefix + "_" + snakeCase(f.Name)
		switch fv.Kind() {
		case reflect.Struct:
			r.setStructValue(name, fv)
		case reflect.Bool:
			val := 0.0
			if fv.Bool() {
				val = 1.0
			}
			r.Gauge(name, bindHelp(f.Name)).Set(val)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if f.Type == durationType {
				r.Gauge(name+"_seconds", bindHelp(f.Name)).
					Set(time.Duration(fv.Int()).Seconds())
				continue
			}
			r.Gauge(name, bindHelp(f.Name)).Set(float64(fv.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			r.Gauge(name, bindHelp(f.Name)).Set(float64(fv.Uint()))
		case reflect.Float32, reflect.Float64:
			r.Gauge(name, bindHelp(f.Name)).Set(fv.Float())
		}
	}
}

func bindHelp(field string) string { return "bound from stats field " + field }

// snakeCase converts a Go identifier to snake_case, keeping acronym runs
// together: DatablocksMade → datablocks_made, WALFailed → wal_failed,
// P99Lat → p99_lat.
func snakeCase(s string) string {
	runes := []rune(s)
	out := make([]rune, 0, len(runes)+4)
	for i, c := range runes {
		if unicode.IsUpper(c) {
			prevLower := i > 0 && (unicode.IsLower(runes[i-1]) || unicode.IsDigit(runes[i-1]))
			nextLower := i+1 < len(runes) && unicode.IsLower(runes[i+1])
			if i > 0 && (prevLower || nextLower) {
				out = append(out, '_')
			}
			c = unicode.ToLower(c)
		}
		out = append(out, c)
	}
	return string(out)
}
