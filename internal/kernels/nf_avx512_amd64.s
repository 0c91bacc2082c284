// AVX-512 near-field pair kernels: the two symmetric kernels every solver's
// near field runs on, eight sources wide, with 1/sqrt(r2) taken off the
// divider. Each group of eight sources seeds y with VRSQRT14PD (relative
// error < 2^-14) and refines it with two Newton steps in double,
//
//	h = r2/2;  twice: y = y + y*(1/2 - (h*y)*y)
//
// which lands within the error of VSQRTPD then VDIVPD (DESIGN.md §11). The
// product is ordered (h*y)*y so that no intermediate leaves the range of
// r2 and y: y*y overflows for r2 below ~1e-308.
//
// A lane is live when it holds a source (the tail mask) and r2 is neither
// ±0 nor +Inf (VFPCLASSPD). Dead lanes get inv = +0 by zero-masking the
// second Newton step, which is what the scalar body computes for +Inf
// (1/sqrt(+Inf) = 0) and what its `continue` contributes for 0; a NaN r2
// stays live, so poison propagates as it does in the scalar body.
//
// Sources run in groups of eight, lane l holding j = 8g + l counted from the
// call's first source. The last 1-7 sources are one more group under the
// tail mask (zero-masked loads, masked stores), so no load or store touches
// memory past the source count. The target's lanes collapse as
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)). Nothing is peeled to alignment:
// the order depends on the source index alone, never on an address.

#include "textflag.h"

DATA nfhalf<>+0(SB)/8, $0.5
GLOBL nfhalf<>(SB), RODATA|NOPTR, $8

// TAILMASK turns the source count N into the byte length of its whole
// groups of eight and sets K to the mask of the remaining N mod 8 sources
// (BZHI), clobbering T and AX.
#define TAILMASK(N, T, K) \
	MOVQ  N, T        \
	ANDQ  $7, T       \
	MOVL  $0xff, AX   \
	BZHIQ T, AX, AX   \
	KMOVB AX, K       \
	ANDQ  $-8, N      \
	SHLQ  $3, N

// A whole group loads and stores all eight lanes; the tail group zero-masks
// its loads and masks its stores with the tail mask K.
#define LOADW(m, K, z) VMOVUPD m, z
#define STOREW(z, K, m) VMOVUPD z, m
#define LOADT(m, K, z) VMOVUPD.Z m, K, z
#define STORET(z, K, m) VMOVUPD z, K, m

// LIVE sets KL to the lanes of R2 under KT that are neither ±0 nor +Inf.
#define LIVE(R2, KT, KL)          \
	VFPCLASSPDZ $0x0e, R2, KL \
	KANDNB      KT, KL, KL

// RSQRT2 sets Y to 1/sqrt(R2) in the lanes KL keeps and to +0 in the others:
// a VRSQRT14PD seed and two Newton steps y += y*(1/2 - (h*y)*y), h = R2/2,
// with Z15 holding 1/2. R2 is left holding h; T is clobbered.
#define RSQRT2(R2, Y, T, KL)      \
	VRSQRT14PD    R2, Y       \
	VMULPD        Z15, R2, R2 \
	VMULPD        Y, R2, T    \
	VFNMADD213PD  Z15, Y, T   \
	VFMADD231PD   T, Y, Y     \
	VMULPD        Y, R2, T    \
	VFNMADD213PD  Z15, Y, T   \
	VFMADD231PD.Z T, Y, KL, Y

// HSUM8 collapses the 8 lanes of Zv (low halves Yv, Xv) into lane 0 of Xv
// as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), clobbering Yt (low half Xt).
#define HSUM8(Zv, Yv, Xv, Yt, Xt) \
	VEXTRACTF64X4 $1, Zv, Yt  \
	VADDPD        Yt, Yv, Yv  \
	VEXTRACTF128  $1, Yv, Xt  \
	VADDPD        Xt, Xv, Xv  \
	VHADDPD       Xv, Xv, Xv

// POTGROUP is one group of PairwisePotentialSoA at source byte offset BX,
// K masking the lanes (LOADT/STORET) or not (LOADW/STOREW): d = target -
// source, then acc += sq*inv and sphi += qi*inv, both fused.
#define POTGROUP(LOAD, STORE, K)  \
	LOAD((R11)(BX*1), K, Z8)  \
	VSUBPD      Z8, Z4, Z8    \
	LOAD((R12)(BX*1), K, Z9)  \
	VSUBPD      Z9, Z5, Z9    \
	LOAD((R13)(BX*1), K, Z10) \
	VSUBPD      Z10, Z6, Z10  \
	VMULPD      Z8, Z8, Z11   \
	VFMADD231PD Z9, Z9, Z11   \
	VFMADD231PD Z10, Z10, Z11 \
	LIVE(Z11, K, K2)          \
	RSQRT2(Z11, Z12, Z13, K2) \
	LOAD((R14)(BX*1), K, Z13) \
	VFMADD231PD Z12, Z13, Z0  \
	LOAD((CX)(BX*1), K, Z13)  \
	VFMADD231PD Z7, Z12, Z13  \
	STORE(Z13, K, (CX)(BX*1))

// func pairPotSoAAVX512(xs, ys, zs, qs, phi *float64, cnt int, sx, sy, sz, sq, sphi *float64, scnt int)
// Symmetric traveling SoA potential: phi[i] += sum sq[j]*inv and
// sphi[j] += qs[i]*inv.
TEXT ·pairPotSoAAVX512(SB), NOSPLIT, $0-96
	MOVQ xs+0(FP), SI
	MOVQ ys+8(FP), DI
	MOVQ zs+16(FP), R8
	MOVQ qs+24(FP), R9
	MOVQ phi+32(FP), DX
	MOVQ cnt+40(FP), R10
	MOVQ sx+48(FP), R11
	MOVQ sy+56(FP), R12
	MOVQ sz+64(FP), R13
	MOVQ sq+72(FP), R14
	MOVQ sphi+80(FP), CX
	MOVQ scnt+88(FP), R15
	TAILMASK(R15, BX, K1)
	KXNORB       K3, K3, K3 // all eight lanes
	VBROADCASTSD nfhalf<>(SB), Z15
	XORQ         AX, AX     // i

ppi:
	CMPQ         AX, R10
	JGE          ppdone
	VBROADCASTSD (SI)(AX*8), Z4
	VBROADCASTSD (DI)(AX*8), Z5
	VBROADCASTSD (R8)(AX*8), Z6
	VBROADCASTSD (R9)(AX*8), Z7 // qi
	VXORPD       Z0, Z0, Z0     // acc
	XORQ         BX, BX         // source byte offset
	CMPQ         BX, R15
	JGE          pptail

ppj:
	POTGROUP(LOADW, STOREW, K3)
	ADDQ $64, BX
	CMPQ BX, R15
	JLT  ppj

pptail:
	KORTESTB K1, K1
	JZ       ppsum
	POTGROUP(LOADT, STORET, K1)

ppsum:
	HSUM8(Z0, Y0, X0, Y13, X13)
	VADDSD (DX)(AX*8), X0, X0
	VMOVSD X0, (DX)(AX*8)
	INCQ   AX
	JMP    ppi

ppdone:
	VZEROUPPER
	RET

// FUSEDGROUP is one group of PairwiseFusedSoA, at BX and under K as in
// POTGROUP, d = source - target: the target sums p += tj and
// f += (tj*inv2)*d, source j takes sphi += ti and sg -= (ti*inv2)*d, with
// tj = sq*inv, ti = qi*inv, inv2 = inv*inv — the potential terms unfused,
// the field updates fused, as in the avx2 body.
#define FUSEDGROUP(LOAD, STORE, K) \
	LOAD((R8)(BX*1), K, Z8)    \
	VSUBPD       Z4, Z8, Z8    \
	LOAD((R9)(BX*1), K, Z9)    \
	VSUBPD       Z5, Z9, Z9    \
	LOAD((R10)(BX*1), K, Z10)  \
	VSUBPD       Z6, Z10, Z10  \
	VMULPD       Z8, Z8, Z11   \
	VFMADD231PD  Z9, Z9, Z11   \
	VFMADD231PD  Z10, Z10, Z11 \
	LIVE(Z11, K, K2)           \
	RSQRT2(Z11, Z12, Z13, K2)  \
	VMULPD       Z12, Z12, Z11 \
	LOAD((R11)(BX*1), K, Z13)  \
	VMULPD       Z12, Z13, Z13 \
	VADDPD       Z13, Z0, Z0   \
	VMULPD       Z11, Z13, Z13 \
	VFMADD231PD  Z8, Z13, Z1   \
	VFMADD231PD  Z9, Z13, Z2   \
	VFMADD231PD  Z10, Z13, Z3  \
	VMULPD       Z7, Z12, Z14  \
	LOAD((R12)(BX*1), K, Z13)  \
	VADDPD       Z14, Z13, Z13 \
	STORE(Z13, K, (R12)(BX*1)) \
	VMULPD       Z11, Z14, Z14 \
	LOAD((R13)(BX*1), K, Z13)  \
	VFNMADD231PD Z8, Z14, Z13  \
	STORE(Z13, K, (R13)(BX*1)) \
	LOAD((R14)(BX*1), K, Z13)  \
	VFNMADD231PD Z9, Z14, Z13  \
	STORE(Z13, K, (R14)(BX*1)) \
	LOAD((R15)(BX*1), K, Z13)  \
	VFNMADD231PD Z10, Z14, Z13 \
	STORE(Z13, K, (R15)(BX*1))

// func pairFusedSoAAVX512(xs, ys, zs, qs, phi, gx, gy, gz *float64, cnt int, sx, sy, sz, sq, sphi, sgx, sgy, sgz *float64, scnt int)
// Symmetric SoA potential + field from one inv = 1/sqrt(r2).
TEXT ·pairFusedSoAAVX512(SB), NOSPLIT, $0-144
	MOVQ         cnt+64(FP), SI
	MOVQ         sx+72(FP), R8
	MOVQ         sy+80(FP), R9
	MOVQ         sz+88(FP), R10
	MOVQ         sq+96(FP), R11
	MOVQ         sphi+104(FP), R12
	MOVQ         sgx+112(FP), R13
	MOVQ         sgy+120(FP), R14
	MOVQ         sgz+128(FP), R15
	MOVQ         scnt+136(FP), CX
	TAILMASK(CX, BX, K1)
	KXNORB       K3, K3, K3
	VBROADCASTSD nfhalf<>(SB), Z15
	XORQ         AX, AX

pfi:
	CMPQ         AX, SI
	JGE          pfdone
	MOVQ         xs+0(FP), DX
	VBROADCASTSD (DX)(AX*8), Z4
	MOVQ         ys+8(FP), DX
	VBROADCASTSD (DX)(AX*8), Z5
	MOVQ         zs+16(FP), DX
	VBROADCASTSD (DX)(AX*8), Z6
	MOVQ         qs+24(FP), DX
	VBROADCASTSD (DX)(AX*8), Z7 // qi
	VXORPD       Z0, Z0, Z0     // p
	VXORPD       Z1, Z1, Z1     // fx
	VXORPD       Z2, Z2, Z2     // fy
	VXORPD       Z3, Z3, Z3     // fz
	XORQ         BX, BX
	CMPQ         BX, CX
	JGE          pftail

pfj:
	FUSEDGROUP(LOADW, STOREW, K3)
	ADDQ $64, BX
	CMPQ BX, CX
	JLT  pfj

pftail:
	KORTESTB K1, K1
	JZ       pfsum
	FUSEDGROUP(LOADT, STORET, K1)

pfsum:
	HSUM8(Z0, Y0, X0, Y13, X13)
	MOVQ   phi+32(FP), DX
	VADDSD (DX)(AX*8), X0, X0
	VMOVSD X0, (DX)(AX*8)
	HSUM8(Z1, Y1, X1, Y13, X13)
	MOVQ   gx+40(FP), DX
	VADDSD (DX)(AX*8), X1, X1
	VMOVSD X1, (DX)(AX*8)
	HSUM8(Z2, Y2, X2, Y13, X13)
	MOVQ   gy+48(FP), DX
	VADDSD (DX)(AX*8), X2, X2
	VMOVSD X2, (DX)(AX*8)
	HSUM8(Z3, Y3, X3, Y13, X13)
	MOVQ   gz+56(FP), DX
	VADDSD (DX)(AX*8), X3, X3
	VMOVSD X3, (DX)(AX*8)
	INCQ   AX
	JMP    pfi

pfdone:
	VZEROUPPER
	RET

// func rsqrt14(x float64) float64
// The host's own VRSQRT14PD of x: the seed the order pins transcribe.
TEXT ·rsqrt14(SB), NOSPLIT, $0-16
	VMOVSD     x+0(FP), X0
	VRSQRT14PD Z0, Z0
	VMOVSD     X0, ret+8(FP)
	VZEROUPPER
	RET
