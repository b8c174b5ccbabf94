# Diffs `fuzz_scenarios --seed N` for N = 1..200 against the committed digest
# golden (tests/golden/fuzz_digests.txt). Run by ctest as:
#
#   cmake -DFUZZ=<path to fuzz_scenarios> -DGOLDEN=<golden file> -P fuzz_digest_golden.cmake
#
# Each seed runs in its own process, exactly like the documented repro
# command, so the golden pins the single-seed output byte for byte.
if(NOT FUZZ OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DFUZZ=<fuzz_scenarios> -DGOLDEN=<file> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(STRINGS "${GOLDEN}" golden_lines REGEX "^[^#]")
list(LENGTH golden_lines expected_count)
if(NOT expected_count EQUAL 200)
  message(FATAL_ERROR "${GOLDEN}: expected 200 seed lines, found ${expected_count}")
endif()

set(mismatches 0)
foreach(seed RANGE 1 200)
  execute_process(COMMAND "${FUZZ}" --seed ${seed} RESULT_VARIABLE status
                  OUTPUT_VARIABLE actual OUTPUT_STRIP_TRAILING_WHITESPACE)
  math(EXPR index "${seed} - 1")
  list(GET golden_lines ${index} want)
  # A non-zero exit (a failed invariant, or a sanitizer report) fails the
  # seed even when the digest line itself came out intact.
  if(NOT actual STREQUAL want OR NOT status EQUAL 0)
    message("seed ${seed} differs (exit ${status}):\n  golden: ${want}\n  actual: ${actual}")
    math(EXPR mismatches "${mismatches} + 1")
  endif()
endforeach()

if(mismatches GREATER 0)
  message(FATAL_ERROR "${mismatches} of 200 fuzz digests differ from ${GOLDEN}")
endif()
message("200 fuzz digests match ${GOLDEN}")
