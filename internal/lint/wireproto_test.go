package lint_test

import (
	"testing"

	"nocpu/internal/lint"
	"nocpu/internal/lint/analysistest"
)

func TestWireprotoShape(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.Wireproto, "wireproto/shape")
}

func TestWireprotoRegistration(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.Wireproto, "wireproto/unreg")
}

func TestWireprotoLockDiff(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.Wireproto, "wireproto/lockdiff")
}
