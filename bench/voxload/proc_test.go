package main

import "testing"

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a parenthesis, as /proc allows.
	line := []byte("4242 (vox serve) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 1234 766 0 0 20 0 7 0 100 1000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 20.0; got != want { // (1234 + 766) ticks / 100
		t.Errorf("cpu seconds = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("a malformed stat line must be an error")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\tvoxserve\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n")
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("VmHWM = %v MiB, want 20", got)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("a status file without VmHWM must be an error")
	}
}
