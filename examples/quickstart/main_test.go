package main

import "testing"

// TestExampleRuns executes the example end to end, so go test ./...
// runs it rather than only compiling it.
func TestExampleRuns(t *testing.T) { main() }
