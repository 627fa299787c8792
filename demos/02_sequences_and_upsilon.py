"""Integer skeleton of the stationary distribution: pi_n = a_n pi_0 - b_n.

The balance equations express every pi_n through pi_0 with integer
coefficients.  Those coefficients hide Bessel structure: the difference
sequences A_n = (a_n - a_{n-1})/n and B_n = (b_n - b_{n-1})/n reproduce the
integer-valued cross-product Upsilon(n+2, m) = pi [J_{n+2} Y_m - J_m Y_{n+2}]
at argument 2.  Two entirely different recursions, one table.
"""

from ladder_fpp import seq, upsilon, upsilon_analytic
from ladder_fpp.chain import sequence_rows

print(f"{'n':>3} {'a_n':>12} {'b_n':>12} {'A_n':>10} {'B_n':>10} "
      f"{'Ups(n+2,0)':>11} {'2Ups(n+2,3)+Ups(n+2,0)':>23}")
a_prev = b_prev = None
for n in range(1, 10):
    a_n, b_n = seq("a", n), seq("b", n)
    A = (a_n - a_prev) // n if n >= 2 else None
    B = (b_n - b_prev) // n if n >= 2 else None
    u0 = upsilon(n + 2, 0)
    combo = 2 * upsilon(n + 2, 3) + u0
    print(f"{n:>3} {a_n:>12} {b_n:>12} {str(A):>10} {str(B):>10} {u0:>11} {combo:>23}")
    a_prev, b_prev = a_n, b_n

print()
print("two routes to the same integers (recursion vs Upsilon differences):")
# a_n, b_n, Ups(n+2,0) and the combination column of the table above, as ints
rows = [[int(v) for v in (a, b, u0, combo)] for _, a, b, _, _, u0, combo in sequence_rows(201)]
for n in (1, 2, 50, 200):
    (a_n, b_n, u0, combo), nxt = rows[n - 1], rows[n]
    same = a_n == nxt[3] - combo and b_n == nxt[2] - u0
    print(f"  n = {n:>3}: recursion == Upsilon route -> {same}")

print()
print("the analytic definition only survives in floating point for small n:")
for n in (5, 10, 14):
    ana = upsilon_analytic(n, 0)
    exact = upsilon(n, 0)
    print(f"  Upsilon({n},0): integer {exact}, series {ana.value:.6f} ± {ana.err:.1e}")
print("beyond n ~ 15 the O(1) Bessel products cancel below double precision,")
print("which is why the integer recursion is the production route.")
