# Runs `aces compare --fingerprint` on the distributed runtime at two shard
# counts and fails unless both print the same four `<policy> <hash>` lines:
# the distributed runtime's work totals are partition-invariant.
#
#   cmake -DACES=path/to/aces -DTOPOLOGY=topo.txt \
#         -P cli_fingerprint_identity.cmake
foreach(processes 1 3)
  set(out cli_fp_inproc_p${processes}.txt)
  execute_process(
    COMMAND ${ACES} compare --topology=${TOPOLOGY} --duration=8 --warmup=2
            --fingerprint --transport=inproc --processes=${processes}
    OUTPUT_FILE ${out}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "compare --processes=${processes} exited ${rc}")
  endif()
  file(STRINGS ${out} lines)
  list(LENGTH lines count)
  if(NOT count EQUAL 4)
    message(FATAL_ERROR "${out}: expected 4 fingerprint lines, got ${count}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files cli_fp_inproc_p1.txt
          cli_fp_inproc_p3.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fingerprints differ between 1 and 3 shards")
endif()
