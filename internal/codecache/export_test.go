package codecache

import (
	"nomap/internal/ir"
	"nomap/internal/profile"
)

// NewArtifact wraps a donor graph and its manifest as the cache stores them.
func NewArtifact(donor *ir.Func, tier profile.Tier, man *Manifest) *Artifact {
	return &Artifact{donor: donor, tier: tier, man: man}
}
