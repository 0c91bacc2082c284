// AVX-512 inner-series kernels (inner.go): the avx2 bodies eight lanes wide,
// with every register's worth of state held in the 32 zmm registers and the
// recurrence's coefficients broadcast from memory. Each lane does the scalar
// body's arithmetic in its order, exactly as in inner_avx2_amd64.s, so every
// backend gives the same bits. The last group loads zero-masked and stores
// under the mask of its cnt mod 8 particles.

#include "textflag.h"

DATA inner512one<>+0(SB)/8, $1.0
GLOBL inner512one<>(SB), RODATA|NOPTR, $8

DATA inner512three<>+0(SB)/8, $3.0
GLOBL inner512three<>(SB), RODATA|NOPTR, $8

// LANEMASK sets K to the lanes of the group at particle AX that hold one of
// the R10 particles, clobbering BX and CX.
#define LANEMASK(K) \
	MOVQ    R10, CX  \
	SUBQ    AX, CX   \
	MOVQ    $8, BX   \
	CMPQ    CX, BX   \
	CMOVQGT BX, CX   \
	MOVL    $0xff, BX \
	BZHIQ   CX, BX, BX \
	KMOVB   BX, K

// SCALED sets Zd to the group's (x - c)*ia for the coordinate plane at P,
// the centre's coordinate broadcast in Zc and ia in Z28.
#define SCALED(P, Zc, Zd) \
	VMOVUPD.Z (P)(AX*8), K1, Zd \
	VSUBPD    Zc, Zd, Zd        \
	VMULPD    Z28, Zd, Zd

// DOT sets Zt to t = fma(s.Z, ez, fma(s.Y, ey, s.X*ex)) for the rule point
// at R11, e in Z0-Z2.
#define DOT(Zt) \
	VMULPD.BCST      0(R11), Z0, Zt \
	VFMADD231PD.BCST 8(R11), Z1, Zt \
	VFMADD231PD.BCST 16(R11), Z2, Zt

// SETUP loads what both kernels share, as in the avx2 file, and broadcasts
// the centre into Z25-Z27 and ia into Z28; GROUP opens a group: lane mask
// K1, e in Z0-Z2, rho2 in Z3.
#define SETUP \
	MOVQ         w+8(FP), R12      \
	MOVQ         vals+16(FP), R13     \
	MOVQ         k+24(FP), R14     \
	MOVQ         cf+32(FP), R15    \
	MOVQ         steps+40(FP), DX  \
	SHLQ         $5, DX            \
	ADDQ         R15, DX           \
	ADDQ         $32, R15          \
	MOVQ         xs+80(FP), SI     \
	MOVQ         ys+88(FP), DI     \
	MOVQ         zs+96(FP), R8     \
	VBROADCASTSD cx+48(FP), Z25    \
	VBROADCASTSD cy+56(FP), Z26    \
	VBROADCASTSD cz+64(FP), Z27    \
	VBROADCASTSD ia+72(FP), Z28    \
	VBROADCASTSD inner512one<>(SB), Z29 \
	VBROADCASTSD inner512three<>(SB), Z30

#define GROUP \
	LANEMASK(K1)           \
	SCALED(SI, Z25, Z0)    \
	SCALED(DI, Z26, Z1)    \
	SCALED(R8, Z27, Z2)    \
	VMULPD      Z0, Z0, Z3 \
	VFMADD231PD Z1, Z1, Z3 \
	VFMADD231PD Z2, Z2, Z3

// WG sets Zw to w*g for point BX.
#define WG(Xw, Zw) \
	VMOVSD       (R12)(BX*8), Xw     \
	VMULSD       (R13)(BX*8), Xw, Xw \
	VBROADCASTSD Xw, Zw

// func innerPotAVX512(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi *float64, cnt int)
// Registers: Z0-Z2 e, Z3 rho2, Z4 the potential, Z5 t, Z6 w*g, Z7 the
// series sum, Z8/Z9 Q_(n-1)/Q_n, Z10/Z11 scratch.
TEXT ·innerPotAVX512(SB), NOSPLIT, $0-120
	SETUP
	MOVQ phi+104(FP), R9
	MOVQ cnt+112(FP), R10
	XORQ AX, AX

ipgroup:
	CMPQ   AX, R10
	JGE    ipdone
	GROUP
	VXORPD Z4, Z4, Z4
	MOVQ   pts+0(FP), R11
	XORQ   BX, BX

ippoint:
	CMPQ        BX, R14
	JGE         ipstore
	DOT(Z5)
	VMOVAPD     Z29, Z8             // q0 = 1
	VMOVAPD     Z5, Z9              // q1 = t
	VMOVAPD     Z29, Z7
	VFMADD231PD Z30, Z5, Z7         // sq = 3t + 1
	MOVQ        R15, CX

ipstep:
	CMPQ             CX, DX
	JGE              ipsum
	VMULPD.BCST      0(CX), Z5, Z10 // u = c1*t
	VMULPD.BCST      8(CX), Z3, Z11 // c2*rho2
	VMULPD           Z8, Z11, Z11   // (c2*rho2)*q0
	VFMSUB231PD      Z9, Z10, Z11   // Q_(n+1) = u*q1 - (c2*rho2)*q0
	VMOVAPD          Z9, Z8
	VMOVAPD          Z11, Z9
	VFMADD231PD.BCST 24(CX), Z9, Z7 // sq += k*Q_(n+1)
	ADDQ             $32, CX
	JMP              ipstep

ipsum:
	WG(X6, Z6)
	VFMADD231PD Z7, Z6, Z4          // v += w*g*sq
	ADDQ        $24, R11
	INCQ        BX
	JMP         ippoint

ipstore:
	VMOVUPD Z4, K1, (R9)(AX*8)
	ADDQ    $8, AX
	JMP     ipgroup

ipdone:
	VZEROUPPER
	RET

// func innerFusedAVX512(pts *geom.Vec3, w, vals *float64, k int, cf *innerCoef, steps int, cx, cy, cz, ia float64, xs, ys, zs, phi, gx, gy, gz *float64, cnt int)
// Registers: Z0-Z2 e, Z3 rho2, Z4 the potential, Z5-Z7 the s_i field sums,
// Z8 the e field sum, Z9 t, Z10/Z11 Q, Z12/Z13 alpha, Z14/Z15 beta,
// Z16-Z18 their series sums, Z19-Z24 scratch.
TEXT ·innerFusedAVX512(SB), NOSPLIT, $0-144
	SETUP
	MOVQ cnt+136(FP), R10
	XORQ AX, AX

ifgroup:
	CMPQ   AX, R10
	JGE    ifdone
	GROUP
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	VXORPD Z8, Z8, Z8
	MOVQ   pts+0(FP), R11
	XORQ   BX, BX

ifpoint:
	CMPQ        BX, R14
	JGE         ifstore
	DOT(Z9)
	VMOVAPD     Z29, Z10            // q0 = 1
	VMOVAPD     Z9, Z11             // q1 = t
	VXORPD      Z12, Z12, Z12       // a0 = 0
	VMOVAPD     Z29, Z13            // a1 = 1
	VXORPD      Z14, Z14, Z14       // b0 = 0
	VXORPD      Z15, Z15, Z15       // b1 = 0
	VMOVAPD     Z29, Z16
	VFMADD231PD Z30, Z9, Z16        // sq = 3t + 1
	VMOVAPD     Z30, Z17            // sa = 3
	VXORPD      Z18, Z18, Z18       // sb = 0
	MOVQ        R15, CX

ifstep:
	CMPQ             CX, DX
	JGE              ifsum
	VMULPD.BCST      0(CX), Z9, Z19   // u = c1*t
	VMULPD.BCST      8(CX), Z3, Z20   // r = c2*rho2
	VMULPD           Z10, Z20, Z21
	VFMSUB231PD      Z11, Z19, Z21    // Q_(n+1) = u*q1 - r*q0
	VMULPD           Z12, Z20, Z22
	VFMSUB231PD      Z13, Z19, Z22    // u*a1 - r*a0
	VFMADD231PD.BCST 0(CX), Z11, Z22  // alpha_(n+1) = c1*q1 + (u*a1 - r*a0)
	VMULPD           Z14, Z20, Z23
	VFMADD231PD.BCST 16(CX), Z10, Z23 // d*q0 + r*b0
	VFMSUB231PD      Z15, Z19, Z23    // beta_(n+1) = u*b1 - (d*q0 + r*b0)
	VMOVAPD          Z11, Z10
	VMOVAPD          Z21, Z11
	VMOVAPD          Z13, Z12
	VMOVAPD          Z22, Z13
	VMOVAPD          Z15, Z14
	VMOVAPD          Z23, Z15
	VFMADD231PD.BCST 24(CX), Z11, Z16 // sq += k*Q_(n+1)
	VFMADD231PD.BCST 24(CX), Z13, Z17 // sa += k*alpha_(n+1)
	VFMADD231PD.BCST 24(CX), Z15, Z18 // sb += k*beta_(n+1)
	ADDQ             $32, CX
	JMP              ifstep

ifsum:
	WG(X24, Z24)
	VFMADD231PD      Z16, Z24, Z4     // v += wg*sq
	VMULPD           Z17, Z24, Z17    // wa = wg*sa
	VFMADD231PD.BCST 0(R11), Z17, Z5  // fx += wa*s.X
	VFMADD231PD.BCST 8(R11), Z17, Z6  // fy += wa*s.Y
	VFMADD231PD.BCST 16(R11), Z17, Z7 // fz += wa*s.Z
	VFMADD231PD      Z18, Z24, Z8     // fb += wg*sb
	ADDQ             $24, R11
	INCQ             BX
	JMP              ifpoint

ifstore:
	MOVQ        phi+104(FP), CX
	VMOVUPD     Z4, K1, (CX)(AX*8)
	VFMADD231PD Z0, Z8, Z5            // fma(fb, ex, fx)
	VMULPD      Z28, Z5, Z5           // *ia
	MOVQ        gx+112(FP), CX
	VMOVUPD     Z5, K1, (CX)(AX*8)
	VFMADD231PD Z1, Z8, Z6
	VMULPD      Z28, Z6, Z6
	MOVQ        gy+120(FP), CX
	VMOVUPD     Z6, K1, (CX)(AX*8)
	VFMADD231PD Z2, Z8, Z7
	VMULPD      Z28, Z7, Z7
	MOVQ        gz+128(FP), CX
	VMOVUPD     Z7, K1, (CX)(AX*8)
	ADDQ        $8, AX
	JMP         ifgroup

ifdone:
	VZEROUPPER
	RET
