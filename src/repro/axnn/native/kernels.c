/* Native hot loops of the approximate-DNN reproduction.
 *
 * Compiled on first use by repro.axnn.native.cext (cc -O3 -shared) and
 * loaded through ctypes, which releases the GIL for the duration of every
 * call.  Each function is the exact integer/float semantics of its NumPy
 * reference — see the bit-identity notes on each kernel; the property tests
 * in tests/test_native_kernels.py enforce them.
 *
 * Layout contract: every array argument is C-contiguous; the Python wrapper
 * (cext.py) declares ndpointer argtypes with the C_CONTIGUOUS flag, so a
 * strided array can never reach these loops.
 */

#include <stdint.h>

/* Column-block width of the LUT matmul: the index block (K * NB uint16s)
 * and two int32 accumulator rows stay cache-resident while the code rows
 * stream once per pair of output rows. */
#define LUT_MATMUL_NB 128

/* One pass of the LUT matmul over ROWS (1 or 2) code rows and one column
 * block: the int32 accumulators take at most kc k-steps before they are
 * flushed into the int64 output rows, and the rows share every index load. */
#define LUT_MATMUL_ROWS(LUT_T, ROWS)                                          \
    do {                                                                      \
        const uint8_t *code_row0 = codes + m * k_dim;                         \
        const uint8_t *code_row1 = code_row0 + (ROWS - 1) * k_dim;            \
        int64_t *out_row0 = out + m * n_dim + n0;                             \
        int64_t *out_row1 = out_row0 + (ROWS - 1) * n_dim;                    \
        for (int64_t j = 0; j < nb; j++) out_row0[j] = out_row1[j] = 0;       \
        for (int64_t k0 = 0; k0 < k_dim; k0 += kc) {                          \
            int64_t k1 = k_dim - k0 > kc ? k0 + kc : k_dim;                   \
            int32_t acc0[LUT_MATMUL_NB], acc1[LUT_MATMUL_NB];                 \
            for (int64_t j = 0; j < nb; j++) acc0[j] = acc1[j] = 0;           \
            for (int64_t k = k0; k < k1; k++) {                               \
                const LUT_T *lut_row0 = lut + (int64_t)code_row0[k] * lut_cols; \
                const LUT_T *lut_row1 = lut + (int64_t)code_row1[k] * lut_cols; \
                const uint16_t *index_row = index + k * n_dim + n0;           \
                for (int64_t j = 0; j < nb; j++) {                            \
                    const uint16_t column = index_row[j];                     \
                    acc0[j] += lut_row0[column];                              \
                    if (ROWS == 2) acc1[j] += lut_row1[column];               \
                }                                                             \
            }                                                                 \
            for (int64_t j = 0; j < nb; j++) out_row0[j] += acc0[j];          \
            if (ROWS == 2)                                                    \
                for (int64_t j = 0; j < nb; j++) out_row1[j] += acc1[j];      \
        }                                                                     \
    } while (0)

/* result[m, n] = sum_k lut[codes[m, k] * lut_cols + index[k, n]]
 *
 * The caller folds each weight's sign into its magnitude once per layer:
 * index[k, n] is mag for sign +1, C + mag for sign -1 and 2C (a zero
 * column) for sign 0, into a pre-signed LUT (rows, 2C + 1) whose columns
 * are LUT, -LUT and 0, where C is the unsigned LUT's column count.  So the
 * inner loop is one gather and one add, with no sign multiply.
 *
 * Accumulation is int32, flushed into int64 at least every kc k-steps,
 * where the caller picks kc = (2**31 - 1) // max|LUT|: no int32 partial sum
 * can overflow, and the result is exact — bit-identical to the gather
 * reference regardless of summation order.  Rows are processed in pairs
 * (an odd last row alone) so both share each index load; codes are uint8,
 * the LUT int16 or int32.
 */
#define DEFINE_LUT_MATMUL(SUFFIX, LUT_T)                                      \
void repro_lut_matmul_##SUFFIX(                                               \
    const uint8_t *codes, const uint16_t *index, const LUT_T *lut,            \
    int64_t m_dim, int64_t k_dim, int64_t n_dim, int64_t lut_cols,            \
    int64_t kc, int64_t *out)                                                 \
{                                                                             \
    for (int64_t n0 = 0; n0 < n_dim; n0 += LUT_MATMUL_NB) {                   \
        int64_t nb = n_dim - n0;                                              \
        if (nb > LUT_MATMUL_NB) nb = LUT_MATMUL_NB;                           \
        int64_t m = 0;                                                        \
        for (; m + 1 < m_dim; m += 2) LUT_MATMUL_ROWS(LUT_T, 2);              \
        if (m < m_dim) LUT_MATMUL_ROWS(LUT_T, 1);                             \
    }                                                                         \
}

DEFINE_LUT_MATMUL(i16, int16_t)
DEFINE_LUT_MATMUL(i32, int32_t)

/* The col2im scatter-add: fold an im2col patch matrix
 * cols (batch, out_h, out_w, kh*kw*channels) back into the zero-initialised
 * padded image out (batch, padded_h, padded_w, channels).
 *
 * Formulated as a gather over output pixels (one write pass instead of the
 * reference's kh*kw strided read-modify-write passes).  Bit-identity with
 * the NumPy loop needs only the *per-element* addition order to match: the
 * reference adds each element's contributions in ascending (i, j) kernel
 * offset order, and the i / j loops below visit them in exactly that order.
 */
void repro_col2im_f64(
    const double *cols, int64_t batch, int64_t out_h, int64_t out_w,
    int64_t kh, int64_t kw, int64_t channels, int64_t stride,
    int64_t padded_h, int64_t padded_w, double *out)
{
    const int64_t patch = kh * kw * channels;
    for (int64_t b = 0; b < batch; b++) {
        const double *cols_b = cols + b * out_h * out_w * patch;
        double *out_b = out + b * padded_h * padded_w * channels;
        for (int64_t hp = 0; hp < padded_h; hp++) {
            for (int64_t i = 0; i < kh; i++) {
                int64_t oh_num = hp - i;
                if (oh_num < 0 || oh_num % stride) continue;
                int64_t oh = oh_num / stride;
                if (oh >= out_h) continue;
                for (int64_t wp = 0; wp < padded_w; wp++) {
                    double *out_row = out_b + (hp * padded_w + wp) * channels;
                    for (int64_t j = 0; j < kw; j++) {
                        int64_t ow_num = wp - j;
                        if (ow_num < 0 || ow_num % stride) continue;
                        int64_t ow = ow_num / stride;
                        if (ow >= out_w) continue;
                        const double *col_row = cols_b
                            + (oh * out_w + ow) * patch
                            + (i * kw + j) * channels;
                        for (int64_t c = 0; c < channels; c++)
                            out_row[c] += col_row[c];
                    }
                }
            }
        }
    }
}
