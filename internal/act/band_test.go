package act

import "testing"

// extendedLevelModulo is extendedLevel in its general form, with the band
// residue taken by integer modulo: the reference the mask form must match.
func extendedLevelModulo(delta, level, offset int) int {
	gmin := offset
	if gmin == 0 {
		gmin = delta
	}
	if level <= gmin {
		return gmin
	}
	return level + ((offset-level)%delta+delta)%delta
}

// TestBandArithmeticMatchesModulo pins the mask and shift forms of the band
// arithmetic against integer modulo and division, exhaustively over every
// δ, every level 0–30 and offsets 0–3 (so offset−level runs negative).
func TestBandArithmeticMatchesModulo(t *testing.T) {
	for _, delta := range []int{Delta1, Delta2, Delta4} {
		tr := &Tree{delta: delta}
		for offset := 0; offset <= 3; offset++ {
			for level := 0; level <= 30; level++ {
				if got, want := tr.extendedLevel(level, offset), extendedLevelModulo(delta, level, offset); got != want {
					t.Errorf("δ=%d: extendedLevel(%d, %d) = %d, modulo form %d", delta, level, offset, got, want)
				}
			}
		}
		for x := -64; x <= 64; x++ {
			if got, want := tr.modDelta(x), (x%delta+delta)%delta; got != want {
				t.Errorf("δ=%d: modDelta(%d) = %d, want %d", delta, x, got, want)
			}
			if x < 0 {
				continue
			}
			if got, want := tr.divDelta(x), x/delta; got != want {
				t.Errorf("δ=%d: divDelta(%d) = %d, want %d", delta, x, got, want)
			}
		}
	}
}
