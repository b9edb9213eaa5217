package yao

// mulMont4 sets z = x·y·R⁻¹ mod m, where k0 = −m⁻¹ mod 2^64, in
// assembly (mont_amd64.s); the contract is mont4.mul's.
//
//go:noescape
func mulMont4(z, x, y, m *limbs4, k0 uint64)
