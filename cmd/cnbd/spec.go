package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"cnb/internal/instance"
	"cnb/internal/workload"
)

// instanceSpec is the POST /instance body: either a workload generator
// spec ("star" / "projdept" with their config/gen options) or inline
// "data" rows. Exactly one of Workload and Data must be set.
type instanceSpec struct {
	// Workload names a built-in generator: "star" (config:
	// workload.StarConfig, gen: workload.StarGenOptions — set
	// config.Snowflake for the snowflake family) or "projdept" (gen:
	// workload.GenOptions, the paper's running example).
	Workload string          `json:"workload"`
	Config   json.RawMessage `json:"config"`
	Gen      json.RawMessage `json:"gen"`
	// Data binds schema names to inline JSON values (see decodeValue for
	// the encoding) — the testing-convenience path for small instances.
	Data map[string]json.RawMessage `json:"data"`
}

// buildInstance decodes a POST /instance body into an instance.
func buildInstance(body []byte) (*instance.Instance, error) {
	var spec instanceSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	switch {
	case spec.Workload != "" && spec.Data != nil:
		return nil, fmt.Errorf("spec: workload and data are mutually exclusive")
	case spec.Workload != "":
		return generateInstance(spec)
	case spec.Data != nil:
		return decodeData(spec.Data)
	default:
		return nil, fmt.Errorf("spec: need either a workload generator spec or inline data")
	}
}

// generateInstance runs the named built-in workload generator.
func generateInstance(spec instanceSpec) (*instance.Instance, error) {
	switch spec.Workload {
	case "star":
		var cfg workload.StarConfig
		if err := unmarshalOpt(spec.Config, &cfg); err != nil {
			return nil, fmt.Errorf("spec: star config: %w", err)
		}
		var gen workload.StarGenOptions
		if err := unmarshalOpt(spec.Gen, &gen); err != nil {
			return nil, fmt.Errorf("spec: star gen: %w", err)
		}
		s, err := workload.NewStar(cfg)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		return s.Generate(gen), nil
	case "projdept":
		var gen workload.GenOptions
		if err := unmarshalOpt(spec.Gen, &gen); err != nil {
			return nil, fmt.Errorf("spec: projdept gen: %w", err)
		}
		pd, err := workload.NewProjDept()
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		return pd.Generate(gen), nil
	default:
		return nil, fmt.Errorf("spec: unknown workload %q (want star or projdept)", spec.Workload)
	}
}

func unmarshalOpt(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	return json.Unmarshal(raw, v)
}

// decodeData binds each name to its decoded inline value.
func decodeData(data map[string]json.RawMessage) (*instance.Instance, error) {
	in := instance.NewInstance()
	for name, raw := range data {
		v, err := decodeValue(raw)
		if err != nil {
			return nil, fmt.Errorf("spec: data %q: %w", name, err)
		}
		in.Bind(name, v)
	}
	return in, nil
}

// decodeValue maps JSON onto the runtime value model: numbers become Int
// when integral and Float otherwise, strings/bools map natively, arrays
// become sets, and objects become structs (fields ordered
// alphabetically, since JSON objects are unordered) — except for the two
// tagged forms {"$dict": [{"key":…, "value":…}, …]} and
// {"$oid": {"type": "T", "serial": N}}.
func decodeValue(raw json.RawMessage) (instance.Value, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return convertValue(v)
}

func convertValue(v any) (instance.Value, error) {
	switch t := v.(type) {
	case nil:
		return nil, fmt.Errorf("null has no value encoding")
	case bool:
		return instance.Bool(t), nil
	case string:
		return instance.Str(t), nil
	case json.Number:
		if i, err := t.Int64(); err == nil {
			return instance.Int(i), nil
		}
		f, err := t.Float64()
		if err != nil {
			return nil, fmt.Errorf("bad number %q", t.String())
		}
		return instance.Float(f), nil
	case []any:
		s := instance.NewSet()
		for _, e := range t {
			ev, err := convertValue(e)
			if err != nil {
				return nil, err
			}
			s.Add(ev)
		}
		return s, nil
	case map[string]any:
		if d, ok := t["$dict"]; ok && len(t) == 1 {
			return convertDict(d)
		}
		if o, ok := t["$oid"]; ok && len(t) == 1 {
			return convertOID(o)
		}
		names := make([]string, 0, len(t))
		for n := range t {
			names = append(names, n)
		}
		sort.Strings(names)
		vals := make([]instance.Value, len(names))
		for i, n := range names {
			fv, err := convertValue(t[n])
			if err != nil {
				return nil, fmt.Errorf("field %s: %w", n, err)
			}
			vals[i] = fv
		}
		return instance.NewStruct(names, vals), nil
	default:
		return nil, fmt.Errorf("unsupported JSON value %T", v)
	}
}

func convertDict(v any) (instance.Value, error) {
	entries, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("$dict wants an array of {key, value} objects")
	}
	d := instance.NewDict()
	for _, e := range entries {
		m, ok := e.(map[string]any)
		if !ok || len(m) != 2 {
			return nil, fmt.Errorf("$dict entry wants exactly {key, value}")
		}
		for _, f := range []string{"key", "value"} {
			if _, ok := m[f]; !ok {
				return nil, fmt.Errorf("$dict entry has no %q field", f)
			}
		}
		k, err := convertValue(m["key"])
		if err != nil {
			return nil, fmt.Errorf("$dict key: %w", err)
		}
		val, err := convertValue(m["value"])
		if err != nil {
			return nil, fmt.Errorf("$dict value: %w", err)
		}
		// A dictionary is a finite function: one value per key.
		if _, dup := d.Get(k); dup {
			return nil, fmt.Errorf("$dict key %s repeats", k)
		}
		d.Put(k, val)
	}
	return d, nil
}

func convertOID(v any) (instance.Value, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("$oid wants {type, serial}")
	}
	typ, _ := m["type"].(string)
	serial, ok := m["serial"].(json.Number)
	if typ == "" || !ok {
		return nil, fmt.Errorf("$oid wants a type string and a serial number")
	}
	n, err := serial.Int64()
	if err != nil {
		return nil, fmt.Errorf("$oid serial: %w", err)
	}
	return instance.OID{TypeName: typ, Serial: int(n)}, nil
}
