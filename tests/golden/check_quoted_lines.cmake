# Checks that the drift-loop summary lines README.md and the verify skill
# quote are lines the phase_shift goldens print. Every backquoted span (on one
# line) that starts with `verdict: `, `drift-triggered re-specializations: `,
# `admission rejections: ` or `drift loop: ` must match the start of a line
# of some GOLDEN_DIR/phase_shift_*.txt, reading a standalone `N` as any
# number and `...` as any text. On a mismatch every offending quote is
# printed with its file, and the test fails.
#
#   cmake -DROOT=<repository root> -DGOLDEN_DIR=... -P check_quoted_lines.cmake

set(docs "${ROOT}/README.md" "${ROOT}/.claude/skills/verify/SKILL.md")
set(prefixes "verdict: " "drift-triggered re-specializations: "
             "admission rejections: " "drift loop: ")

# A list element cannot hold ';', so both sides carry this token instead.
set(semicolon "@SEMICOLON@")

file(GLOB goldens "${GOLDEN_DIR}/phase_shift_*.txt")
if(NOT goldens)
  message(FATAL_ERROR "no phase_shift_*.txt golden in ${GOLDEN_DIR}")
endif()
set(golden_texts "")
foreach(golden ${goldens})
  file(READ "${golden}" text)
  string(REPLACE ";" "${semicolon}" text "${text}")
  list(APPEND golden_texts "${text}")
endforeach()

set(checked 0)
set(failed "")
foreach(doc ${docs})
  file(READ "${doc}" text)
  string(REPLACE ";" "${semicolon}" text "${text}")
  string(REGEX MATCHALL "`[^`\n]*`" spans "${text}")
  foreach(span ${spans})
    string(REGEX REPLACE "^`(.*)`$" "\\1" quote "${span}")
    set(relevant FALSE)
    foreach(prefix ${prefixes})
      string(FIND "${quote}" "${prefix}" at)
      if(at EQUAL 0)
        set(relevant TRUE)
      endif()
    endforeach()
    if(NOT relevant)
      continue()
    endif()
    math(EXPR checked "${checked} + 1")
    # Wildcards to placeholders, escape the rest, then expand the wildcards.
    string(REPLACE "..." "@ANY@" re "${quote}")
    string(REGEX REPLACE "(^|[^A-Za-z0-9_])N([^A-Za-z0-9_]|$)" "\\1@NUM@\\2"
           re "${re}")
    string(REGEX REPLACE "([][^$.|?*+()\\\\])" "\\\\\\1" re "${re}")
    string(REPLACE "@ANY@" "[^\n]*" re "${re}")
    string(REPLACE "@NUM@" "[0-9]+" re "${re}")
    set(found FALSE)
    foreach(golden_text ${golden_texts})
      string(REGEX MATCH "(^|\n)${re}" hit "${golden_text}")
      if(NOT hit STREQUAL "")
        set(found TRUE)
      endif()
    endforeach()
    if(NOT found)
      string(REPLACE "${semicolon}" ";" quote "${quote}")
      list(APPEND failed "${doc}: `${quote}`")
    endif()
  endforeach()
endforeach()

if(checked EQUAL 0)
  message(FATAL_ERROR "found no quoted drift-loop line in ${docs}")
endif()
if(failed)
  list(JOIN failed "\n  " failed)
  message(FATAL_ERROR "quoted lines no phase_shift golden prints:\n  ${failed}")
endif()
message(STATUS "${checked} quoted lines match the phase_shift goldens")
