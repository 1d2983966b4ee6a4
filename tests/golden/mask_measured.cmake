# mask_measured(<text> <out>): masks the two measured wall-clock fields that
# table2_overheads prints among its modeled ones, so two renderings compare
# equal whenever their modeled numbers do. Masked: each `real[ms] m/p`
# measured value together with the column padding it sets, and the
# AVG-S/AVG-E times of the "candidate search stays in milliseconds" line.
# Everything else is left byte for byte. Included by check_golden.cmake
# (MASK_MEASURED) and check_experiments.cmake (Table II).

function(mask_measured text out)
  # Data rows: "| App | 0.43/1.44    |" -> "| App | #/1.44|".
  string(REGEX REPLACE "\n(\\|[^|\n]*\\| )[0-9]+\\.[0-9]+(/[^ |\n]*) *\\|"
         "\n\\1#\\2|" text "${text}")
  # The header cell's padding and the separators' second segment.
  string(REGEX REPLACE "(\\| real\\[ms\\] m/p) *\\|" "\\1|" text "${text}")
  string(REGEX REPLACE "\n(\\|-+\\+)-+\\+" "\n\\1-+" text "${text}")
  string(REGEX REPLACE "AVG-S [0-9.]+ ms, AVG-E [0-9.]+ ms"
         "AVG-S # ms, AVG-E # ms" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()
