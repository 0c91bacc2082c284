package simd

// CPUID feature probe for the vector backends. The repository vendors
// nothing, so instead of golang.org/x/sys/cpu this is the same three-leaf
// probe that package does: leaf 1 for FMA/AVX/OSXSAVE, XGETBV for OS-enabled
// register state, leaf 7 for AVX2 (and, for avx512, AVX512F, AVX512DQ,
// AVX512VL and BMI2). Every condition must hold — FMA and AVX2 are
// separate CPUID bits, and without OSXSAVE+XCR0 the OS does not preserve
// the upper YMM halves (or the opmask and ZMM state) across context
// switches.

// cpuid executes the CPUID instruction (implemented in cpu_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (implemented in cpu_amd64.s).
func xgetbv() (eax, edx uint32)

var hasAVX2FMA, hasAVX512 = detect()

func detect() (avx2fma, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false, false
	}
	// XCR0 bits 1 (SSE state) and 2 (AVX state) must both be OS-enabled;
	// avx512 also needs bits 5-7 (opmask, ZMM_Hi256, Hi16_ZMM).
	xcr0, _ := xgetbv()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	const bmi2 = 1 << 8 // BZHI builds the avx512 kernels' tail mask
	const avx512f = 1 << 16
	const avx512dq = 1 << 17 // VFPCLASSPD and the byte opmask instructions
	const avx512vl = 1 << 31 // EVEX ymm: the blas K = 12 slab body's Y16-Y23
	const avx512all = bmi2 | avx512f | avx512dq | avx512vl
	avx2fma = ebx7&avx2 != 0
	avx512 = avx2fma && xcr0&0xe0 == 0xe0 && ebx7&avx512all == avx512all
	return avx2fma, avx512
}
