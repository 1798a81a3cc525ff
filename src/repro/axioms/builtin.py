"""The built-in axiom files.

The paper's prototype ships 44 mathematical axioms and 275 Alpha axioms;
this module is our equivalent corpus, written in the same LISP-like syntax
(section 8) and parsed by :mod:`repro.axioms.parser` at load time.  The
corpus is organised exactly as the paper describes:

* :func:`math_axioms` — facts about functions useful for any target
  (commutativity/associativity/identities, ``select``/``store``,
  ``selectb``/``storeb``);
* :func:`constant_synthesis_axioms` — the companions of the matcher's
  constant-synthesis pass (e.g. ``k * 2**n = k << n``, which needs the
  ``4 = 2**2`` fact synthesised for constants, Figure 2 of the paper);
* :func:`alpha_axioms` — definitions of Alpha operations in terms of
  mathematical functions (``extbl``/``insbl``/``mskbl``/``s4addq``/...);
* :func:`riscv_axioms` — the rv64 instruction sublayer: lowerings for the
  comparisons and conditional moves RV64 lacks, tagged
  ``targets=("rv64",)`` so they never enter another target's corpus;
* :func:`checksum_axioms` — the program-local operators ``add``/``carry``
  of the checksum example (Figure 6), provided as a reusable helper.

Every built-in axiom carries a ``targets`` applicability tag.  The
mathematical, constant-synthesis and Alpha files are *universal*
(``targets=()``): the Alpha operations are mathematically defined
surface vocabulary every target's goals may mention, and these axioms
are exactly their definitions.  Only per-ISA idiom layers (the rv64
file) are tagged, and :func:`default_axiom_corpus` assembles the
per-target corpus by tag.
"""

from __future__ import annotations

from typing import Tuple

from repro.axioms.axiom import AxiomSet
from repro.axioms.parser import parse_axiom_file
from repro.terms.ops import OperatorRegistry, Sort, default_registry

_MATH_AXIOMS = r"""
; ===== add64: commutative, associative, identity 0 (paper section 4) =====
(\axiom (forall (x y) (pats (\add64 x y))
    (eq (\add64 x y) (\add64 y x))))
(\axiom (forall (x y z) (pats (\add64 x (\add64 y z)))
    (eq (\add64 x (\add64 y z)) (\add64 (\add64 x y) z))))
(\axiom (forall (x y z) (pats (\add64 (\add64 x y) z))
    (eq (\add64 x (\add64 y z)) (\add64 (\add64 x y) z))))
(\axiom (forall (x) (pats (\add64 x 0))
    (eq (\add64 x 0) x)))

; ===== mul64 =====
(\axiom (forall (x y) (pats (\mul64 x y))
    (eq (\mul64 x y) (\mul64 y x))))
(\axiom (forall (x y z) (pats (\mul64 x (\mul64 y z)))
    (eq (\mul64 x (\mul64 y z)) (\mul64 (\mul64 x y) z))))
(\axiom (forall (x) (pats (\mul64 x 1))
    (eq (\mul64 x 1) x)))
(\axiom (forall (x) (pats (\mul64 x 0))
    (eq (\mul64 x 0) 0)))
(\axiom (forall (x) (pats (\mul64 x 2))
    (eq (\mul64 x 2) (\add64 x x))))

; ===== add/sub cancellation =====
(\axiom (forall (x y) (pats (\add64 (\sub64 x y) y))
    (eq (\add64 (\sub64 x y) y) x)))
(\axiom (forall (x y) (pats (\sub64 (\add64 x y) y))
    (eq (\sub64 (\add64 x y) y) x)))
(\axiom (forall (x y) (pats (\neg64 (\sub64 x y)))
    (eq (\neg64 (\sub64 x y)) (\sub64 y x))))

; ===== subtraction and negation =====
(\axiom (forall (x y) (pats (\sub64 x y))
    (eq (\sub64 x y) (\add64 x (\neg64 y)))))
(\axiom (forall (x y) (pats (\add64 x (\neg64 y)))
    (eq (\add64 x (\neg64 y)) (\sub64 x y))))
(\axiom (forall (x) (pats (\neg64 (\neg64 x)))
    (eq (\neg64 (\neg64 x)) x)))
(\axiom (forall (x) (pats (\sub64 x 0))
    (eq (\sub64 x 0) x)))
(\axiom (forall (x) (pats (\sub64 x x))
    (eq (\sub64 x x) 0)))
(\axiom (forall (x) (pats (\neg64 x))
    (eq (\neg64 x) (\sub64 0 x))))

; ===== bis (or): commutative, associative, identities =====
(\axiom (forall (x y) (pats (\bis x y))
    (eq (\bis x y) (\bis y x))))
(\axiom (forall (x y z) (pats (\bis x (\bis y z)))
    (eq (\bis x (\bis y z)) (\bis (\bis x y) z))))
(\axiom (forall (x y z) (pats (\bis (\bis x y) z))
    (eq (\bis x (\bis y z)) (\bis (\bis x y) z))))
(\axiom (forall (x) (pats (\bis x 0))
    (eq (\bis x 0) x)))
(\axiom (forall (x) (pats (\bis x x))
    (eq (\bis x x) x)))

; ===== and64 =====
(\axiom (forall (x y) (pats (\and64 x y))
    (eq (\and64 x y) (\and64 y x))))
(\axiom (forall (x y z) (pats (\and64 x (\and64 y z)))
    (eq (\and64 x (\and64 y z)) (\and64 (\and64 x y) z))))
(\axiom (forall (x) (pats (\and64 x 0))
    (eq (\and64 x 0) 0)))
(\axiom (forall (x) (pats (\and64 x x))
    (eq (\and64 x x) x)))
(\axiom (forall (x) (pats (\and64 x 18446744073709551615))
    (eq (\and64 x 18446744073709551615) x)))

; ===== xor64 =====
(\axiom (forall (x y) (pats (\xor64 x y))
    (eq (\xor64 x y) (\xor64 y x))))
(\axiom (forall (x) (pats (\xor64 x 0))
    (eq (\xor64 x 0) x)))
(\axiom (forall (x) (pats (\xor64 x x))
    (eq (\xor64 x x) 0)))
(\axiom (forall (x y) (pats (\xor64 (\xor64 x y) y))
    (eq (\xor64 (\xor64 x y) y) x)))

; ===== absorption =====
(\axiom (forall (x y) (pats (\and64 x (\bis x y)))
    (eq (\and64 x (\bis x y)) x)))
(\axiom (forall (x y) (pats (\bis x (\and64 x y)))
    (eq (\bis x (\and64 x y)) x)))
(\axiom (forall (x) (pats (\bic x x)) (eq (\bic x x) 0)))
(\axiom (forall (x) (pats (\eqv x x))
    (eq (\eqv x x) 18446744073709551615)))

; ===== not / bic / ornot / eqv bridges =====
(\axiom (forall (x y) (pats (\bic x y) (\and64 x (\not64 y)))
    (eq (\bic x y) (\and64 x (\not64 y)))))
(\axiom (forall (x y) (pats (\ornot x y) (\bis x (\not64 y)))
    (eq (\ornot x y) (\bis x (\not64 y)))))
(\axiom (forall (x y) (pats (\eqv x y) (\not64 (\xor64 x y)))
    (eq (\eqv x y) (\not64 (\xor64 x y)))))
(\axiom (forall (x) (pats (\not64 (\not64 x)))
    (eq (\not64 (\not64 x)) x)))
(\axiom (forall (x) (pats (\not64 x) (\xor64 x 18446744073709551615))
    (eq (\not64 x) (\xor64 x 18446744073709551615))))
(\axiom (forall (x) (pats (\not64 x))
    (eq (\not64 x) (\ornot 0 x))))

; ===== shifts =====
(\axiom (forall (x) (pats (\sll x 0)) (eq (\sll x 0) x)))
(\axiom (forall (x) (pats (\srl x 0)) (eq (\srl x 0) x)))
(\axiom (forall (x) (pats (\sra x 0)) (eq (\sra x 0) x)))

; ===== comparisons =====
(\axiom (forall (x) (pats (\cmpeq x x)) (eq (\cmpeq x x) 1)))
(\axiom (forall (x) (pats (\cmpult x x)) (eq (\cmpult x x) 0)))
(\axiom (forall (x) (pats (\cmpule x x)) (eq (\cmpule x x) 1)))
(\axiom (forall (x) (pats (\cmpule x 0)) (eq (\cmpule x 0) (\cmpeq x 0))))
(\axiom (forall (x y) (pats (\cmpeq (\xor64 x y) 0))
    (eq (\cmpeq (\xor64 x y) 0) (\cmpeq x y))))
(\axiom (forall (x y) (pats (\cmpeq (\sub64 x y) 0))
    (eq (\cmpeq (\sub64 x y) 0) (\cmpeq x y))))

; ===== select / store over memory (paper section 4) =====
(\axiom (forall (a i x) (pats (\select (\store a i x) i))
    (eq (\select (\store a i x) i) x)))
(\axiom (forall (a i j x) (pats (\select (\store a i x) j))
    (or (eq i j)
        (eq (\select (\store a i x) j) (\select a j)))))
(\axiom (forall (a i x y) (pats (\store (\store a i x) i y))
    (eq (\store (\store a i x) i y) (\store a i y))))

; ===== selectb / storeb: bytes of a word (paper section 4) =====
(\axiom (forall (w i x) (pats (\selectb (\storeb w i x) i))
    (eq (\selectb (\storeb w i x) i) (\and64 x 255))))
; Byte indices are taken mod 8 (as on Alpha), so the "same byte" test
; compares the masked indices, not the raw ones.
(\axiom (forall (w i j x) (pats (\selectb (\storeb w i x) j))
    (or (eq (\and64 i 7) (\and64 j 7))
        (eq (\selectb (\storeb w i x) j) (\selectb w j)))))
(\axiom (forall (w i x y) (pats (\storeb (\storeb w i x) i y))
    (eq (\storeb (\storeb w i x) i y) (\storeb w i y))))

; ===== selectw: 16-bit fields, used by the checksum example =====
(\axiom (forall (w j) (pats (\selectw w j))
    (eq (\selectw w j) (\extwl w (\mul64 2 j)))))
"""

_CONSTANT_SYNTHESIS_AXIOMS = r"""
; These axioms only fire when the matcher's constant-synthesis pass has
; introduced (\pow 2 n) nodes for power-of-two constants, reproducing the
; paper's Figure 2 step "4 = 2**2".
; Shift counts are taken mod 64 while \pow is exact, so the equality only
; holds for in-range exponents; the guard literal dies for constants 0..63
; (the only exponents the synthesis pass creates).
(\axiom (forall (k n) (pats (\mul64 k (\pow 2 n)))
    (or (neq n (\and64 n 63))
        (eq (\mul64 k (\pow 2 n)) (\sll k n)))))
(\axiom (forall (x) (pats (\pow x 1)) (eq (\pow x 1) x)))
(\axiom (forall (x) (pats (\pow x 0)) (eq (\pow x 0) 1)))
"""

_ALPHA_AXIOMS = r"""
; ===== byte extract / insert / mask (paper section 4, verbatim) =====
(\axiom (forall (w i) (pats (\extbl w i) (\selectb w i))
    (eq (\extbl w i) (\selectb w i))))
(\axiom (forall (w i) (pats (\mskbl w i) (\storeb w i 0))
    (eq (\mskbl w i) (\storeb w i 0))))
; storeb decomposes into mask + insert + or: the engine of byteswap.
(\axiom (forall (w i x) (pats (\storeb w i x))
    (eq (\storeb w i x) (\bis (\mskbl w i) (\insbl x i)))))
; insbl of an extracted byte into position 0 is the extract itself
; (extbl results fit in one byte).
(\axiom (forall (w j) (pats (\insbl (\extbl w j) 0))
    (eq (\insbl (\extbl w j) 0) (\extbl w j))))
(\axiom (forall (w j) (pats (\and64 (\extbl w j) 255))
    (eq (\and64 (\extbl w j) 255) (\extbl w j))))
; Masking an inserted byte's own position annihilates it.
(\axiom (forall (x i) (pats (\mskbl (\insbl x i) i))
    (eq (\mskbl (\insbl x i) i) 0)))
; Masking a *different* position leaves an insert alone — a clause whose
; "i = j" literal dies for distinct constants (section 5's clause
; machinery), flattening storeb chains into or-trees of inserts.
(\axiom (forall (x i j) (pats (\mskbl (\insbl x j) i))
    (or (eq (\and64 i 7) (\and64 j 7))
        (eq (\mskbl (\insbl x j) i) (\insbl x j)))))
; Byte masks distribute over or.
(\axiom (forall (a b i) (pats (\mskbl (\bis a b) i))
    (eq (\mskbl (\bis a b) i) (\bis (\mskbl a i) (\mskbl b i)))))
; Byte masks commute past stores of other bytes.
(\axiom (forall (w i j x) (pats (\mskbl (\storeb w j x) i))
    (or (eq (\and64 i 7) (\and64 j 7))
        (eq (\mskbl (\storeb w j x) i) (\storeb (\mskbl w i) j x)))))
; An extracted byte lives in byte 0; masking any other byte is the identity.
(\axiom (forall (w k i) (pats (\mskbl (\extbl w k) i))
    (or (eq (\and64 i 7) 0)
        (eq (\mskbl (\extbl w k) i) (\extbl w k)))))

; ===== extracts at byte 0 are ands with small masks, and vice versa =====
(\axiom (forall (w) (pats (\extbl w 0) (\and64 w 255))
    (eq (\extbl w 0) (\and64 w 255))))
(\axiom (forall (w) (pats (\extwl w 0) (\and64 w 65535))
    (eq (\extwl w 0) (\and64 w 65535))))
(\axiom (forall (w) (pats (\extll w 0) (\and64 w 4294967295))
    (eq (\extll w 0) (\and64 w 4294967295))))
(\axiom (forall (w) (pats (\extql w 0))
    (eq (\extql w 0) w)))

; ===== extracts are shift-and-mask =====
(\axiom (forall (w i) (pats (\extbl w i))
    (eq (\extbl w i) (\and64 (\srl w (\mul64 8 i)) 255))))
(\axiom (forall (w i) (pats (\extwl w i))
    (eq (\extwl w i) (\and64 (\srl w (\mul64 8 i)) 65535))))
(\axiom (forall (x i) (pats (\insbl x i))
    (eq (\insbl x i) (\sll (\and64 x 255) (\mul64 8 i)))))

; ===== zap / zapnot for the byte-regular masks =====
(\axiom (forall (w) (pats (\zapnot w 1) (\and64 w 255))
    (eq (\zapnot w 1) (\and64 w 255))))
(\axiom (forall (w) (pats (\zapnot w 3) (\and64 w 65535))
    (eq (\zapnot w 3) (\and64 w 65535))))
(\axiom (forall (w) (pats (\zapnot w 15) (\and64 w 4294967295))
    (eq (\zapnot w 15) (\and64 w 4294967295))))
(\axiom (forall (w) (pats (\zapnot w 255))
    (eq (\zapnot w 255) w)))
(\axiom (forall (w m) (pats (\zap w m))
    (eq (\zap w m) (\zapnot w (\xor64 m 255)))))

; ===== scaled add/subtract (paper Figure 2: s4addl) =====
(\axiom (forall (k n) (pats (\s4addq k n) (\add64 (\mul64 4 k) n))
    (eq (\s4addq k n) (\add64 (\mul64 4 k) n))))
(\axiom (forall (k n) (pats (\s8addq k n) (\add64 (\mul64 8 k) n))
    (eq (\s8addq k n) (\add64 (\mul64 8 k) n))))
(\axiom (forall (k n) (pats (\s4subq k n) (\sub64 (\mul64 4 k) n))
    (eq (\s4subq k n) (\sub64 (\mul64 4 k) n))))
(\axiom (forall (k n) (pats (\s8subq k n) (\sub64 (\mul64 8 k) n))
    (eq (\s8subq k n) (\sub64 (\mul64 8 k) n))))
; Scaled adds phrased with shifts (the matcher meets both forms).
(\axiom (forall (k n) (pats (\add64 (\sll k 2) n))
    (eq (\add64 (\sll k 2) n) (\s4addq k n))))
(\axiom (forall (k n) (pats (\add64 (\sll k 3) n))
    (eq (\add64 (\sll k 3) n) (\s8addq k n))))

; ===== longword (32-bit sign-extended) forms =====
(\axiom (forall (x y) (pats (\addl x y))
    (eq (\addl x y) (\sextl (\add64 x y)))))
(\axiom (forall (x y) (pats (\subl x y))
    (eq (\subl x y) (\sextl (\sub64 x y)))))
(\axiom (forall (x) (pats (\sextl (\sextl x)))
    (eq (\sextl (\sextl x)) (\sextl x))))

; ===== conditional move simplifications =====
(\axiom (forall (x y) (pats (\cmoveq 0 x y))
    (eq (\cmoveq 0 x y) x)))
(\axiom (forall (x y) (pats (\cmovne 0 x y))
    (eq (\cmovne 0 x y) y)))
(\axiom (forall (t x) (pats (\cmoveq t x x))
    (eq (\cmoveq t x x) x)))
(\axiom (forall (t x) (pats (\cmovne t x x))
    (eq (\cmovne t x x) x)))
(\axiom (forall (t x y) (pats (\cmoveq t x y) (\cmovne t y x))
    (eq (\cmoveq t x y) (\cmovne t y x))))
(\axiom (forall (t x y) (pats (\cmovlt t x y))
    (eq (\cmovlt t x y) (\cmovge t y x))))
(\axiom (forall (t x y z) (pats (\cmoveq t x (\cmoveq t y z)))
    (eq (\cmoveq t x (\cmoveq t y z)) (\cmoveq t x z))))

; ===== shift/extend bridges: extracting the low field via shifts =====
; Triggered only on the shift form: the reverse direction (rewriting every
; and/sext into a two-shift chain) floods the graph with strictly worse
; computations — the trigger discipline the paper's "pats" exist for.
(\axiom (forall (x) (pats (\srl (\sll x 56) 56))
    (eq (\srl (\sll x 56) 56) (\and64 x 255))))
(\axiom (forall (x) (pats (\srl (\sll x 48) 48))
    (eq (\srl (\sll x 48) 48) (\and64 x 65535))))
(\axiom (forall (x) (pats (\srl (\sll x 32) 32))
    (eq (\srl (\sll x 32) 32) (\and64 x 4294967295))))
(\axiom (forall (x) (pats (\sra (\sll x 56) 56))
    (eq (\sra (\sll x 56) 56) (\sextb x))))
(\axiom (forall (x) (pats (\sra (\sll x 48) 48))
    (eq (\sra (\sll x 48) 48) (\sextw x))))
(\axiom (forall (x) (pats (\sra (\sll x 32) 32))
    (eq (\sra (\sll x 32) 32) (\sextl x))))

; ===== more byte-manipulation facts =====
(\axiom (forall (x i) (pats (\extbl (\insbl x i) i))
    (eq (\extbl (\insbl x i) i) (\and64 x 255))))
(\axiom (forall (w i) (pats (\extbl (\mskbl w i) i))
    (eq (\extbl (\mskbl w i) i) 0)))
(\axiom (forall (w m) (pats (\zapnot (\zapnot w m) m))
    (eq (\zapnot (\zapnot w m) m) (\zapnot w m))))
(\axiom (forall (x i) (pats (\extwl (\inswl x i) i))
    (or (eq (\and64 i 7) 7)
        (eq (\extwl (\inswl x i) i) (\and64 x 65535)))))

; ===== scaled subtract via shifts =====
(\axiom (forall (k n) (pats (\sub64 (\sll k 2) n))
    (eq (\sub64 (\sll k 2) n) (\s4subq k n))))
(\axiom (forall (k n) (pats (\sub64 (\sll k 3) n))
    (eq (\sub64 (\sll k 3) n) (\s8subq k n))))

; ===== longword ops are idempotent under sign extension =====
(\axiom (forall (x y) (pats (\sextl (\addl x y)))
    (eq (\sextl (\addl x y)) (\addl x y))))
(\axiom (forall (x y) (pats (\sextl (\subl x y)))
    (eq (\sextl (\subl x y)) (\subl x y))))
(\axiom (forall (x) (pats (\sextl (\sextb x)))
    (eq (\sextl (\sextb x)) (\sextb x))))
(\axiom (forall (x) (pats (\sextl (\sextw x)))
    (eq (\sextl (\sextw x)) (\sextw x))))
"""

_RISCV_AXIOMS = r"""
; ===== RV64 comparison lowerings =====
; The base ISA only has slt/sltu; equality and the non-strict orders
; lower through sltu/xor idioms.  Triggered on the rich form only, so
; saturation rewrites *towards* what the machine can execute.
(\axiom (forall (x y) (pats (\cmpeq x y))
    (eq (\cmpeq x y) (\cmpult (\xor64 x y) 1))))
(\axiom (forall (x y) (pats (\cmple x y))
    (eq (\cmple x y) (\xor64 (\cmplt y x) 1))))
(\axiom (forall (x y) (pats (\cmpule x y))
    (eq (\cmpule x y) (\xor64 (\cmpult y x) 1))))

; ===== RV64 conditional-move lowerings =====
; No cmov instructions: select through an all-ones/all-zeros mask.
; neg64(cmp) is -1 when the test holds, 0 otherwise, so
; (x & m) | (y & ~m) picks x exactly when the test holds — and bic
; (Zbb andn) keeps the arm count at four machine ops.
(\axiom (forall (t x y) (pats (\cmoveq t x y))
    (eq (\cmoveq t x y)
        (\bis (\and64 x (\neg64 (\cmpeq t 0)))
              (\bic y (\neg64 (\cmpeq t 0)))))))
(\axiom (forall (t x y) (pats (\cmovlt t x y))
    (eq (\cmovlt t x y)
        (\bis (\and64 x (\neg64 (\cmplt t 0)))
              (\bic y (\neg64 (\cmplt t 0)))))))
; cmovge needs its own trigger: the Alpha bridge only fires on cmovlt.
(\axiom (forall (t x y) (pats (\cmovge t x y))
    (eq (\cmovge t x y) (\cmovlt t y x))))

; ===== byte surgery without byte instructions =====
; The math file lowers extbl/extwl/insbl; the remaining Alpha byte ops
; need their shift-and-mask forms here or rv64 cannot reach machine
; code for them at all.  All hold for every i: the byte index is
; i mod 8, the shift count is mod 64, and 8*i mod 64 == 8*(i mod 8).
(\axiom (forall (x i) (pats (\inswl x i))
    (eq (\inswl x i) (\sll (\and64 x 65535) (\mul64 8 i)))))
(\axiom (forall (w i) (pats (\mskbl w i))
    (eq (\mskbl w i) (\bic w (\sll 255 (\mul64 8 i))))))
(\axiom (forall (w i) (pats (\mskwl w i))
    (eq (\mskwl w i) (\bic w (\sll 65535 (\mul64 8 i))))))
; zapnot with the byte-irregular masks the regular axioms skip.
(\axiom (forall (w) (pats (\zapnot w 85))
    (eq (\zapnot w 85) (\and64 w 71777214294589695))))
(\axiom (forall (w) (pats (\zapnot w 240))
    (eq (\zapnot w 240) (\and64 w 18446744069414584320))))
"""

_CHECKSUM_AXIOMS = r"""
; carry returns the carry bit resulting from the
; unsigned 64-bit sum of its arguments.   (paper Figure 6, verbatim)
(\axiom (forall (a b) (pats (carry a b))
    (eq (carry a b) (\cmpult (\add64 a b) a))))
(\axiom (forall (a b) (pats (carry a b))
    (eq (carry a b) (\cmpult (\add64 a b) b))))

; associativity of add
(\axiom (forall (a b c) (pats (add a (add b c)))
    (eq (add a (add b c)) (add (add a b) c))))
(\axiom (forall (a b c) (pats (add (add a b) c))
    (eq (add a (add b c)) (add (add a b) c))))

; commutativity of add
(\axiom (forall (a b) (pats (add a b))
    (eq (add a b) (add b a))))

; implementation of add
(\axiom (forall (a b) (pats (add a b))
    (eq (add a b) (\add64 (\add64 a b) (carry a b)))))
"""


def math_axioms(registry: OperatorRegistry = None) -> AxiomSet:
    """The built-in mathematical axiom file."""
    return parse_axiom_file(
        _MATH_AXIOMS, registry or default_registry(), name="math"
    )


def constant_synthesis_axioms(registry: OperatorRegistry = None) -> AxiomSet:
    """Axioms that pair with the matcher's constant-synthesis pass."""
    return parse_axiom_file(
        _CONSTANT_SYNTHESIS_AXIOMS, registry or default_registry(), name="constsynth"
    )


def alpha_axioms(registry: OperatorRegistry = None) -> AxiomSet:
    """The built-in architectural axiom file for the Alpha EV6."""
    return parse_axiom_file(
        _ALPHA_AXIOMS, registry or default_registry(), name="alpha"
    )


def riscv_axioms(registry: OperatorRegistry = None) -> AxiomSet:
    """The rv64 instruction-idiom sublayer (tagged ``targets=("rv64",)``)."""
    return parse_axiom_file(
        _RISCV_AXIOMS,
        registry or default_registry(),
        name="riscv",
        targets=("rv64",),
    )


# Per-target instruction sublayers, keyed by target registry name.
# Targets without an entry (ev6, and unregistered specs) are served by the
# universal files alone.
_TARGET_SUBLAYERS = {
    "rv64": riscv_axioms,
}


def target_axioms(registry: OperatorRegistry = None, target: str = "ev6") -> AxiomSet:
    """The per-target instruction sublayer (empty for untagged targets)."""
    builder = _TARGET_SUBLAYERS.get(target)
    if builder is None:
        return AxiomSet(name="%s-sublayer" % target)
    return builder(registry)


def default_axiom_corpus(
    registry: OperatorRegistry = None, target: str = "ev6"
) -> AxiomSet:
    """The full built-in corpus for ``target``.

    Universal layers (math, constant synthesis, the Alpha definitional
    file) plus the target's tagged sublayer, filtered by the ``targets``
    applicability tag — so e.g. the rv64 cmov lowerings can never leak
    into an ev6 saturation, which keeps ev6 assembly byte-stable.
    """
    registry = registry or default_registry()
    # The target sublayer comes FIRST: `AxiomSet.definitions()` is
    # first-wins, and the sublayer's lowerings are *grounded* (cmovlt as
    # shift/mask arithmetic) where the universal files only have swap
    # forms (cmovlt <-> cmovge) — the baseline lowerer and evaluator
    # want the grounded ones.  Saturation is order-insensitive (same
    # fixpoint), and targets without a sublayer (ev6!) see the exact
    # historical order, so ev6 assembly stays byte-stable.
    corpus = (
        target_axioms(registry, target)
        + math_axioms(registry)
        + constant_synthesis_axioms(registry)
        + alpha_axioms(registry)
    )
    return corpus.for_target(target)


def checksum_axioms(
    registry: OperatorRegistry,
) -> Tuple[OperatorRegistry, AxiomSet]:
    """Declare the checksum example's local ``add``/``carry`` operators.

    Returns the (mutated) registry and the program-local axiom set; mirrors
    the ``\\opdecl`` + ``\\axiom`` preamble of Figure 6.
    """
    registry.declare("add", (Sort.INT, Sort.INT), Sort.INT, commutative=True)
    registry.declare("carry", (Sort.INT, Sort.INT), Sort.INT, commutative=True)
    axioms = parse_axiom_file(_CHECKSUM_AXIOMS, registry, name="checksum")
    return registry, axioms
