package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestReportFig5b(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "5b", "-cases", "paper5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 5(b)") || !strings.Contains(s, "paper5") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

func TestReportFig4a(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "4a", "-cases", "paper5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Fig. 4(a)") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestReportFig5a(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "5a", "-cases", "paper5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Fig. 5(a)") || !strings.Contains(s, "sat") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

func TestReportTable4(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "t4", "-cases", "paper5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Table IV") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestReportSoak(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "soak", "-cases", "paper5", "-soak-cycles", "30"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Continuous-operation soak") || !strings.Contains(s, "paper5") {
		t.Errorf("unexpected output:\n%s", s)
	}
}

func TestReportServe(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "serve", "-cases", "paper5", "-serve-queries", "60"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	for _, want := range []string{"Service throughput", "hot", "ladder", "cold", "queries/s", "cache"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestReportSparse(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "sparse", "-cases", "paper5"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if strings.Contains(s, "sweep A/B") {
		t.Errorf("unexpected sweep A/B table:\n%s", s)
	}
	_, ladder, ok := strings.Cut(s, "Warm-start re-dispatch ladder")
	if !ok {
		t.Fatalf("no warm-start ladder table:\n%s", s)
	}
	rows := 0
	for _, line := range strings.Split(ladder, "\n") {
		f := strings.Fields(line)
		if len(f) != 9 || f[0] != "paper5" {
			continue
		}
		rows++
		warm, err1 := strconv.Atoi(f[6])
		cold, err2 := strconv.Atoi(f[7])
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable pivot counts in %q", line)
		}
		if cold < warm {
			t.Errorf("cold pivots %d < warm pivots %d in %q", cold, warm, line)
		}
	}
	if rows != 1 {
		t.Fatalf("want one paper5 ladder row, got %d:\n%s", rows, ladder)
	}
}

func TestReportErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("want error without -fig or -all")
	}
	if err := run([]string{"-fig", "9z"}, &out); err == nil {
		t.Error("want error for unknown artifact")
	}
	if err := run([]string{"-fig", "4a", "-cases", "nope"}, &out); err == nil {
		t.Error("want error for unknown case")
	}
}
