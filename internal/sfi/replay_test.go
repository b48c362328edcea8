package sfi

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// replayAll replays a ledger into one collector per campaign.
func replayAll(r io.Reader) ([]*collector, error) {
	var cs []*collector
	err := ReplayLedger(r, func() StatsSink {
		c := &collector{}
		cs = append(cs, c)
		return c
	})
	return cs, err
}

func TestReplayLedgerErrors(t *testing.T) {
	for _, in := range []string{`{"type":"trial","trial":0}`, `{"type":"meltdown"}`, "not json"} {
		if _, err := replayAll(strings.NewReader(in + "\n")); err == nil {
			t.Errorf("%s: no error", in)
		}
	}
	if cs, err := replayAll(strings.NewReader("")); err != nil || len(cs) != 0 {
		t.Errorf("empty ledger: %d campaigns, %v", len(cs), err)
	}
}

// TestReplayLedgerNegative walks ReplayLedger through damaged JSONL
// ledgers: truncated trailing records, mid-file corruption, unknown type
// tags, orphan trials, and type-mismatched payloads. Every failure must
// name the 1-based offending line so a multi-gigabyte campaign ledger
// can be triaged without bisecting the file, and no sink may see the
// offending line.
func TestReplayLedgerNegative(t *testing.T) {
	campaign := `{"type":"campaign","app":"a","trials":1,"seed":1,"dmax":4}`
	trial := `{"type":"trial","trial":0,"inject_at":1,"region_id":0}`

	cases := []struct {
		name    string
		input   string
		wantSub string
		trials  int // records the sinks observed before the error
	}{
		{
			"truncated trailing record",
			campaign + "\n" + `{"type":"trial","trial":0,"inject`,
			"sfi: ledger line 2:", 0,
		},
		{
			"corrupt line mid-file",
			campaign + "\n" + trial + "\n" + "{not json}\n" + trial,
			"sfi: ledger line 3:", 1,
		},
		{
			"unknown record type",
			campaign + "\n" + `{"type":"bogus"}`,
			`sfi: ledger line 2: unknown record type "bogus"`, 0,
		},
		{
			"trial before any campaign header",
			trial,
			"sfi: ledger line 1: trial record before any campaign header", 0,
		},
		{
			"campaign header with mismatched field type",
			`{"type":"campaign","app":123}`,
			"sfi: ledger line 1: campaign header:", 0,
		},
		{
			"trial record with mismatched field type",
			campaign + "\n" + `{"type":"trial","trial":"zero"}`,
			"sfi: ledger line 2: trial record:", 0,
		},
		{
			"blank lines count toward the reported line number",
			campaign + "\n\n\n" + `{"type":"wat"}`,
			"sfi: ledger line 4:", 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := replayAll(strings.NewReader(tc.input))
			if err == nil {
				t.Fatalf("ReplayLedger accepted damaged input, replayed %d campaigns", len(cs))
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the offending line; want substring %q", err, tc.wantSub)
			}
			trials := 0
			for _, c := range cs {
				trials += len(c.records)
			}
			if trials != tc.trials {
				t.Errorf("sinks observed %d trials before the error, want %d", trials, tc.trials)
			}
		})
	}
}

// TestReplayLedgerBoundaries pins the non-error edges: empty input is a
// valid zero-campaign ledger, and blank lines between records are
// skipped without ending a campaign.
func TestReplayLedgerBoundaries(t *testing.T) {
	if cs, err := replayAll(strings.NewReader("")); err != nil || len(cs) != 0 {
		t.Fatalf("empty ledger: campaigns=%v err=%v, want none", cs, err)
	}
	in := `{"type":"campaign","app":"a"}` + "\n\n" +
		`{"type":"trial","trial":0}` + "\n" +
		`{"type":"campaign","app":"b"}` + "\n" +
		`{"type":"trial","trial":0}` + "\n" +
		`{"type":"trial","trial":1}` + "\n"
	cs, err := replayAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || cs[0].meta.App != "a" || cs[1].meta.App != "b" {
		t.Fatalf("campaign split wrong: %+v", cs)
	}
	if len(cs[0].records) != 1 || len(cs[1].records) != 2 {
		t.Fatalf("trial attribution wrong: %d and %d records", len(cs[0].records), len(cs[1].records))
	}
}

// TestMergeErrors nails the rejection surface: duplicated trials,
// interleaved or unsorted shards, diverging headers, missing headers,
// trial-before-header, and unknown record types.
func TestMergeErrors(t *testing.T) {
	header := `{"type":"campaign","app":"x","trials":4,"seed":1}`
	trial := func(i int) string { return fmt.Sprintf(`{"type":"trial","trial":%d}`, i) }
	shard := func(lines ...string) io.Reader { return strings.NewReader(strings.Join(lines, "\n") + "\n") }
	cases := []struct {
		name   string
		shards []io.Reader
		want   string
	}{
		{"no shards", nil, "no shard"},
		{"duplicate trial", []io.Reader{shard(header, trial(0)), shard(header, trial(0))}, "more than one shard"},
		{"interleaved", []io.Reader{shard(header, trial(0), trial(2)), shard(header, trial(1), trial(3))}, "must not interleave"},
		{"interleaved reversed", []io.Reader{shard(header, trial(1), trial(3)), shard(header, trial(0), trial(2))}, "must not interleave"},
		{"unsorted shard", []io.Reader{shard(header, trial(1), trial(0))}, "ascending"},
		{"repeated trial in one shard", []io.Reader{shard(header, trial(1), trial(1))}, "ascending"},
		{"header mismatch", []io.Reader{shard(header, trial(0)), shard(`{"type":"campaign","app":"y"}`, trial(1))}, "header differs"},
		{"missing header", []io.Reader{shard(trial(0))}, "before the campaign header"},
		{"empty shard", []io.Reader{shard(header, trial(0)), strings.NewReader("")}, "no campaign header"},
		{"second header", []io.Reader{shard(header, trial(0), header)}, "second campaign header"},
		{"unknown type", []io.Reader{shard(header, `{"type":"meltdown"}`)}, "unknown record type"},
		{"malformed json", []io.Reader{shard(header, "not json")}, "invalid character"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := MergeLedgers(&out, tc.shards...)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Gaps are not errors: adaptive campaigns skip trials by design. A
	// shard with no trials adds nothing, wherever it stands.
	var out bytes.Buffer
	if err := MergeLedgers(&out, shard(header), shard(header, trial(3), trial(5)), shard(header, trial(0))); err != nil {
		t.Fatalf("gapped trial space must merge cleanly: %v", err)
	}
	if want := strings.Join([]string{header, trial(0), trial(3), trial(5)}, "\n") + "\n"; out.String() != want {
		t.Errorf("gapped merge:\n got %q\nwant %q", out.String(), want)
	}
}

// FuzzMergeCommutes: for arbitrary byte inputs, merging (a, b) and
// (b, a) must either both fail or produce identical output — the
// permutation invariance MergeLedgers documents.
func FuzzMergeCommutes(f *testing.F) {
	header := `{"type":"campaign","app":"x","trials":4,"seed":1}`
	f.Add([]byte(header+"\n{\"type\":\"trial\",\"trial\":0}\n"), []byte(header+"\n{\"type\":\"trial\",\"trial\":1}\n"))
	f.Add([]byte(header+"\n"), []byte(header+"\n{\"type\":\"trial\",\"trial\":3}\n"))
	f.Add([]byte("not json\n"), []byte(header+"\n"))
	f.Add([]byte(""), []byte(""))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ab, ba bytes.Buffer
		errAB := MergeLedgers(&ab, bytes.NewReader(a), bytes.NewReader(b))
		errBA := MergeLedgers(&ba, bytes.NewReader(b), bytes.NewReader(a))
		if (errAB == nil) != (errBA == nil) {
			t.Fatalf("merge commutativity broken: (a,b) err=%v, (b,a) err=%v", errAB, errBA)
		}
		if errAB == nil && !bytes.Equal(ab.Bytes(), ba.Bytes()) {
			t.Fatalf("merge output depends on argument order:\n(a,b): %q\n(b,a): %q", ab.Bytes(), ba.Bytes())
		}
	})
}
