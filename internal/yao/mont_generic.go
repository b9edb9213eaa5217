//go:build !amd64

package yao

// mulMont4 sets z = x·y·R⁻¹ mod m, where k0 = −m⁻¹ mod 2^64; the
// contract is mont4.mul's.
func mulMont4(z, x, y, m *limbs4, k0 uint64) {
	var t [8]uint64
	mul8(&t, x, y)
	reduce(z, &t, m, k0)
}
