package exhaustive_test

import (
	"testing"

	"natle/internal/analysis/analysistest"
	"natle/internal/analysis/exhaustive"
)

func TestExhaustive(t *testing.T) {
	analysistest.Run(t, "testdata", exhaustive.Analyzer, "exh")
}
